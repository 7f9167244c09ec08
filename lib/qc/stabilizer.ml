(** Stabilizer (CHP) simulation of Clifford circuits, after
    Aaronson–Gottesman.

    The paper's ref [72] (Bravyi–Gosset) observes that hidden-shift circuits
    for inner-product-like bent functions are dominated by Clifford gates;
    indeed our compiled inner-product instances are {e Clifford-only}, so a
    tableau simulator runs them in polynomial time at register widths far
    beyond any state-vector simulator. This backend accepts
    {H, S, S†, X, Y, Z, CNOT, CZ, SWAP} and measurement.

    The tableau keeps [2n] Pauli rows (destabilizers then stabilizers) over
    [n] qubits, bit-packed into 64-bit words. A {!sampler} draws from a
    state's whole computational-basis distribution without re-running the
    circuit; {!Noise} pairs it with Pauli frames for noisy shots. *)

type t = {
  n : int;
  words : int; (* words per x- or z- half row *)
  x : int64 array array; (* row -> packed x bits *)
  z : int64 array array;
  r : Bytes.t; (* row -> phase bit (0 or 1) *)
}

let get_bit row q = Int64.logand (Int64.shift_right_logical row.(q lsr 6) (q land 63)) 1L = 1L

let flip_bit row q =
  row.(q lsr 6) <- Int64.logxor row.(q lsr 6) (Int64.shift_left 1L (q land 63))

let get_r t i = Bytes.get_uint8 t.r i = 1
let set_r t i b = Bytes.set_uint8 t.r i (if b then 1 else 0)
let flip_r t i = Bytes.set_uint8 t.r i (1 - Bytes.get_uint8 t.r i)

(** [create n] is the tableau of |0…0⟩: destabilizer row [i] is X_i,
    stabilizer row [n+i] is Z_i. *)
let create n =
  if n < 1 then invalid_arg "Stabilizer.create";
  let words = (n + 63) / 64 in
  let t =
    { n; words;
      x = Array.init (2 * n) (fun _ -> Array.make words 0L);
      z = Array.init (2 * n) (fun _ -> Array.make words 0L);
      r = Bytes.make (2 * n) '\000' }
  in
  for i = 0 to n - 1 do
    flip_bit t.x.(i) i;
    flip_bit t.z.(n + i) i
  done;
  t

let num_qubits t = t.n

(* --- gate actions on every row --- *)

let h t q =
  for i = 0 to (2 * t.n) - 1 do
    let xb = get_bit t.x.(i) q and zb = get_bit t.z.(i) q in
    if xb && zb then flip_r t i;
    if xb <> zb then begin
      flip_bit t.x.(i) q;
      flip_bit t.z.(i) q
    end
  done

let s t q =
  for i = 0 to (2 * t.n) - 1 do
    let xb = get_bit t.x.(i) q and zb = get_bit t.z.(i) q in
    if xb && zb then flip_r t i;
    if xb then flip_bit t.z.(i) q
  done

let z t q =
  for i = 0 to (2 * t.n) - 1 do
    if get_bit t.x.(i) q then flip_r t i
  done

let x t q =
  for i = 0 to (2 * t.n) - 1 do
    if get_bit t.z.(i) q then flip_r t i
  done

let y t q =
  (* Y = iXZ: phases flip when exactly one of x, z is set *)
  for i = 0 to (2 * t.n) - 1 do
    if get_bit t.x.(i) q <> get_bit t.z.(i) q then flip_r t i
  done

let sdg t q =
  (* S† = S Z *)
  s t q;
  z t q

let cnot t a b =
  for i = 0 to (2 * t.n) - 1 do
    let xa = get_bit t.x.(i) a and zb = get_bit t.z.(i) b in
    let xb = get_bit t.x.(i) b and za = get_bit t.z.(i) a in
    if xa && zb && xb = za then flip_r t i;
    if xa then flip_bit t.x.(i) b;
    if zb then flip_bit t.z.(i) a
  done

let cz t a b =
  h t b;
  cnot t a b;
  h t b

let swap t a b =
  cnot t a b;
  cnot t b a;
  cnot t a b

exception Not_clifford of Gate.t

(** [apply t g] applies a Clifford gate. Raises {!Not_clifford} on T/T†/Rz
    and multiply-controlled gates. *)
let apply t (g : Gate.t) =
  match g with
  | Gate.H q -> h t q
  | Gate.S q -> s t q
  | Gate.Sdg q -> sdg t q
  | Gate.X q -> x t q
  | Gate.Y q -> y t q
  | Gate.Z q -> z t q
  | Gate.Cnot (a, b) -> cnot t a b
  | Gate.Cz (a, b) -> cz t a b
  | Gate.Swap (a, b) -> swap t a b
  | Gate.Mcz [ a ] -> z t a
  | Gate.Mcz [ a; b ] -> cz t a b
  | g -> raise (Not_clifford g)

(** [is_clifford_circuit c] holds when every gate is accepted by
    {!apply}. *)
let is_clifford_circuit c =
  Circuit.fold
    (fun acc g ->
      acc
      && match g with
         | Gate.H _ | Gate.S _ | Gate.Sdg _ | Gate.X _ | Gate.Y _ | Gate.Z _
         | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _ | Gate.Mcz [ _ ] | Gate.Mcz [ _; _ ] ->
             true
         | _ -> false)
    true c

(* rowsum(h, i): row h := row h * row i, tracking the phase exponent mod 4
   (Aaronson-Gottesman's g function summed over qubits). *)
let rowsum t hrow irow =
  let g = ref 0 in
  for q = 0 to t.n - 1 do
    let x1 = get_bit t.x.(irow) q and z1 = get_bit t.z.(irow) q in
    let x2 = get_bit t.x.(hrow) q and z2 = get_bit t.z.(hrow) q in
    (* g(x1,z1,x2,z2) per the CHP paper *)
    let contribution =
      match (x1, z1) with
      | false, false -> 0
      | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
      | true, false -> if z2 && x2 then 1 else if z2 && not x2 then -1 else 0
      | false, true -> if x2 && not z2 then 1 else if x2 && z2 then -1 else 0
    in
    g := !g + contribution
  done;
  let phase =
    (2 * ((if get_r t hrow then 1 else 0) + if get_r t irow then 1 else 0)) + !g
  in
  set_r t hrow (((phase mod 4) + 4) mod 4 = 2);
  for w = 0 to t.words - 1 do
    t.x.(hrow).(w) <- Int64.logxor t.x.(hrow).(w) t.x.(irow).(w);
    t.z.(hrow).(w) <- Int64.logxor t.z.(hrow).(w) t.z.(irow).(w)
  done

(* copy row i into row h *)
let rowcopy t hrow irow =
  Array.blit t.x.(irow) 0 t.x.(hrow) 0 t.words;
  Array.blit t.z.(irow) 0 t.z.(hrow) 0 t.words;
  set_r t hrow (get_r t irow)

let rowclear t hrow =
  Array.fill t.x.(hrow) 0 t.words 0L;
  Array.fill t.z.(hrow) 0 t.words 0L;
  set_r t hrow false

(** [measure ?st t q] measures qubit [q] in the computational basis,
    collapsing the state. A PRNG state is needed only when the outcome is
    random; omitting it makes random outcomes 0.
    Returns [(outcome, was_deterministic)]. *)
let measure ?st t q =
  (* is there a stabilizer row with x bit set at q? *)
  let p = ref (-1) in
  (try
     for i = t.n to (2 * t.n) - 1 do
       if get_bit t.x.(i) q then begin
         p := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !p >= 0 then begin
    (* random outcome *)
    let p = !p in
    for i = 0 to (2 * t.n) - 1 do
      if i <> p && get_bit t.x.(i) q then rowsum t i p
    done;
    rowcopy t (p - t.n) p;
    rowclear t p;
    flip_bit t.z.(p) q;
    let outcome = match st with Some st -> Random.State.bool st | None -> false in
    set_r t p outcome;
    (outcome, false)
  end
  else begin
    (* deterministic: accumulate destabilizer products into a scratch row.
       We borrow an extra virtual row by simulating rowsum into explicit
       scratch arrays. *)
    let sx = Array.make t.words 0L and sz = Array.make t.words 0L in
    let sr = ref 0 in
    for i = 0 to t.n - 1 do
      if get_bit t.x.(i) q then begin
        (* scratch := scratch * stabilizer row (n + i) *)
        let irow = t.n + i in
        let g = ref 0 in
        for qq = 0 to t.n - 1 do
          let x1 = get_bit t.x.(irow) qq and z1 = get_bit t.z.(irow) qq in
          let x2 = get_bit sx qq and z2 = get_bit sz qq in
          let contribution =
            match (x1, z1) with
            | false, false -> 0
            | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
            | true, false -> if z2 && x2 then 1 else if z2 && not x2 then -1 else 0
            | false, true -> if x2 && not z2 then 1 else if x2 && z2 then -1 else 0
          in
          g := !g + contribution
        done;
        let phase = (2 * (!sr + if get_r t irow then 1 else 0)) + !g in
        sr := if ((phase mod 4) + 4) mod 4 = 2 then 1 else 0;
        for w = 0 to t.words - 1 do
          sx.(w) <- Int64.logxor sx.(w) t.x.(irow).(w);
          sz.(w) <- Int64.logxor sz.(w) t.z.(irow).(w)
        done
      end
    done;
    (!sr = 1, true)
  end

(** [run circuit] simulates a Clifford circuit from |0…0⟩.
    Raises {!Not_clifford} when a non-Clifford gate is hit. *)
let run circuit =
  let t = create (Circuit.num_qubits circuit) in
  Circuit.iter (apply t) circuit;
  t

(** [measure_all ?st t] measures every qubit in order and returns the packed
    outcome together with a flag telling whether {e all} outcomes were
    deterministic. Raises only if a measured 1 lands beyond bit 61 — wide
    registers whose outcome happens to fit an int (e.g. a small hidden
    shift on a 64-qubit circuit) are fine; use {!measure} otherwise. *)
let measure_all ?st t =
  let out = ref 0 and deterministic = ref true in
  for q = 0 to t.n - 1 do
    let bit, det = measure ?st t q in
    if bit then begin
      if q > 61 then
        invalid_arg "Stabilizer.measure_all: outcome does not fit an int (use measure)";
      out := !out lor (1 lsl q)
    end;
    if not det then deterministic := false
  done;
  (!out, !deterministic)

(* --- sampling the computational-basis distribution --- *)

(** Widest register whose outcome fits an int: bits 0–61, the same limit
    as {!measure_all}. *)
let max_sample_qubits = 62

(** A sampler for the computational-basis outcomes of a stabilizer state.
    The support of a stabilizer state is an affine space [x0 ⊕ V], with
    [V] spanned by the X parts of its stabilizer generators, and the
    outcome distribution is uniform over it. [basis] holds a basis of [V]
    after Gaussian elimination (distinct leading bits), so each subset of
    it XORs to a distinct point of [V]. *)
type sampler = { x0 : int; basis : int array }

let copy t =
  { t with x = Array.map Array.copy t.x; z = Array.map Array.copy t.z; r = Bytes.copy t.r }

(** [sampler t] builds the sampler of [t]'s state, leaving [t] as it is:
    one outcome [x0] from {!measure_all} on a copy, plus the eliminated X
    parts of the stabilizer rows. Raises [Invalid_argument] past
    {!max_sample_qubits} qubits. *)
let sampler t =
  if t.n > max_sample_qubits then
    invalid_arg
      (Printf.sprintf "Stabilizer.sampler: %d qubits exceed the %d-bit outcome limit" t.n
         max_sample_qubits);
  (* pivot.(k) is the basis vector whose highest set bit is k, or 0 *)
  let pivot = Array.make t.n 0 in
  for i = t.n to (2 * t.n) - 1 do
    let v = ref (Int64.to_int t.x.(i).(0)) and k = ref (t.n - 1) in
    while !v <> 0 && !k >= 0 do
      if (!v lsr !k) land 1 = 1 then
        if pivot.(!k) = 0 then begin
          pivot.(!k) <- !v;
          v := 0
        end
        else v := !v lxor pivot.(!k);
      decr k
    done
  done;
  let basis = Array.of_list (List.filter (fun v -> v <> 0) (Array.to_list pivot)) in
  { x0 = fst (measure_all (copy t)); basis }

(** [sample smp st] draws one outcome: [x0] XORed with a uniformly random
    subset of the basis, one random bit per basis vector. *)
let sample smp st =
  let x = ref smp.x0 and bits = ref 0 in
  Array.iteri
    (fun i b ->
      if i mod 30 = 0 then bits := Random.State.bits st;
      if !bits land 1 = 1 then x := !x lxor b;
      bits := !bits lsr 1)
    smp.basis;
  !x
