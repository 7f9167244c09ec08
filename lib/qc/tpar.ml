(** T-count optimization by phase folding over phase polynomials.

    Within every region of the circuit built from {CNOT, X} plus the
    diagonal phase gates {Z, S, S†, T, T†, Rz}, each qubit carries an affine
    function (a {e parity}) of the region's input values. A phase gate
    contributes a rotation on its qubit's current parity, and rotations on
    the {e same} parity merge: [T·T = S], [T·T† = 1], etc. This is the
    merging step at the core of the T-par algorithm (paper ref [69],
    Amy–Maslov–Mosca); we re-emit each merged rotation at the first point
    where its parity occurs, which preserves the unitary up to global
    phase. Gates outside the region alphabet (H, Toffoli, …) act as
    barriers that flush the region.

    A region costs only its own gates. Every qubit enters a region holding
    its input parity, and only the qubits a CNOT or X changed are restored
    at the next barrier, so two barriers in a row cost O(1). The rotations
    on input parities are kept per qubit and come out first, in qubit
    order, at the region's start; every other parity is noted where a CNOT
    or X first makes it, in an integer-keyed table emptied entry by entry. *)

open Gate

(* Parity encoding: bit q (q < n) = input variable of qubit q for the
   current region; bit n = the constant 1. *)

(* [push_phase_gates ~eighths ~angle q acc] conses the gates of a rotation
   by [eighths]·π/4 then [angle] on qubit [q] onto [acc], last gate
   first. *)
let push_phase_gates ~eighths ~angle q acc =
  let acc =
    match ((eighths mod 8) + 8) mod 8 with
    | 0 -> acc
    | 1 -> T q :: acc
    | 2 -> S q :: acc
    | 3 -> T q :: S q :: acc
    | 4 -> Z q :: acc
    | 5 -> T q :: Z q :: acc
    | 6 -> Sdg q :: acc
    | 7 -> Tdg q :: acc
    | _ -> assert false
  in
  if Float.abs angle > 1e-12 then Rz (angle, q) :: acc else acc

let phase_gates_of ~eighths ~angle q = List.rev (push_phase_gates ~eighths ~angle q [])

(* The parities of a region that are no qubit's input, in first-seen
   order: columns indexed by entry, and an open-addressing index from
   linear part to entry + 1 (0 = free slot). *)
type noted = {
  mutable len : int;
  mutable key : int array; (* linear part *)
  mutable eighths : int array; (* multiples of π/4 (T = 1) *)
  mutable angle : float array; (* accumulated Rz angle *)
  mutable position : int array; (* skeleton index where the parity first appeared *)
  mutable qubit : int array; (* a qubit holding the parity at that position *)
  mutable neg : bool array; (* constant bit of the parity at first sight *)
  mutable slot : int array; (* the entry's slot in [index] *)
  mutable bits : int; (* [index] has 2^bits slots *)
  mutable index : int array;
}

let slot_of bits k = (k * 0x2545F4914F6CDD1D) lsr (63 - bits)

let grow a len fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 len;
  b

(* the entry of linear part [k], added at [position] on [qubit] if new *)
let find_or_add t k ~position ~qubit ~neg =
  if 2 * (t.len + 1) > Array.length t.index then begin
    (* keep the index at most half full: rehash every live entry *)
    t.bits <- t.bits + 1;
    t.index <- Array.make (1 lsl t.bits) 0;
    let mask = (1 lsl t.bits) - 1 in
    for i = 0 to t.len - 1 do
      let s = ref (slot_of t.bits t.key.(i)) in
      while t.index.(!s) <> 0 do s := (!s + 1) land mask done;
      t.index.(!s) <- i + 1;
      t.slot.(i) <- !s
    done
  end;
  let mask = Array.length t.index - 1 in
  let s = ref (slot_of t.bits k) in
  while t.index.(!s) <> 0 && t.key.(t.index.(!s) - 1) <> k do
    s := (!s + 1) land mask
  done;
  let e = t.index.(!s) in
  if e <> 0 then e - 1
  else begin
    let i = t.len in
    if i = Array.length t.key then begin
      t.key <- grow t.key i 0;
      t.eighths <- grow t.eighths i 0;
      t.angle <- grow t.angle i 0.;
      t.position <- grow t.position i 0;
      t.qubit <- grow t.qubit i 0;
      t.neg <- grow t.neg i false;
      t.slot <- grow t.slot i 0
    end;
    t.key.(i) <- k;
    t.eighths.(i) <- 0;
    t.angle.(i) <- 0.;
    t.position.(i) <- position;
    t.qubit.(i) <- qubit;
    t.neg.(i) <- neg;
    t.slot.(i) <- !s;
    t.index.(!s) <- i + 1;
    t.len <- i + 1;
    i
  end

let clear t =
  for i = 0 to t.len - 1 do
    t.index.(t.slot.(i)) <- 0
  done;
  t.len <- 0

let rec log2 k = if k = 1 then 0 else 1 + log2 (k lsr 1)

(** [optimize c] returns a circuit computing the same unitary as [c] up to
    global phase, with phase rotations on equal parities merged. *)
let optimize c =
  Obs.with_span "qc.tpar.optimize" @@ fun () ->
  let n = Circuit.num_qubits c in
  if n > 61 then invalid_arg "Tpar.optimize: parity bitmasks support at most 61 qubits";
  let const_bit = 1 lsl n in
  let out = ref [] in
  (* region state: wire parities, and the qubits whose parity changed *)
  let parity = Array.init n (fun q -> 1 lsl q) in
  let dirty = ref 0 and dirty_qubits = Array.make n 0 and n_dirty = ref 0 in
  (* rotations on the input parity of each qubit, and the qubits hit *)
  let in_eighths = Array.make n 0 and in_angle = Array.make n 0. in
  let hit = ref 0 and hit_qubits = Array.make n 0 and n_hit = ref 0 in
  (* region CNOT/X and pass-through gates, in order *)
  let skeleton = ref (Array.make 64 (X 0)) and skeleton_len = ref 0 in
  let noted =
    { len = 0; key = Array.make 16 0; eighths = Array.make 16 0; angle = Array.make 16 0.;
      position = Array.make 16 0; qubit = Array.make 16 0; neg = Array.make 16 false;
      slot = Array.make 16 0; bits = 6; index = Array.make 64 0 }
  in
  let to_skeleton g =
    let len = !skeleton_len in
    if len = Array.length !skeleton then skeleton := grow !skeleton len g;
    !skeleton.(len) <- g;
    skeleton_len := len + 1
  in
  let set_parity q p =
    let bit = 1 lsl q in
    if !dirty land bit = 0 then begin
      dirty := !dirty lor bit;
      dirty_qubits.(!n_dirty) <- q;
      incr n_dirty
    end;
    parity.(q) <- p;
    let linear = p land lnot const_bit in
    (* rotations on an input parity are kept per qubit, at position 0 *)
    if linear land (linear - 1) <> 0 then
      ignore
        (find_or_add noted linear ~position:!skeleton_len ~qubit:q
           ~neg:(p land const_bit <> 0))
  in
  let flush () =
    if Obs.enabled () then begin
      (* one phase-polynomial region: its partition size counts the n
         input parities and every other parity a CNOT or X made *)
      Obs.observe "qc.tpar.partition_size" (float_of_int (n + noted.len));
      Obs.count "qc.tpar.regions"
    end;
    (* position 0: the input parities, in qubit order *)
    for i = 1 to !n_hit - 1 do
      let q = hit_qubits.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && hit_qubits.(!j) > q do
        hit_qubits.(!j + 1) <- hit_qubits.(!j);
        decr j
      done;
      hit_qubits.(!j + 1) <- q
    done;
    for i = 0 to !n_hit - 1 do
      let q = hit_qubits.(i) in
      out := push_phase_gates ~eighths:in_eighths.(q) ~angle:in_angle.(q) q !out;
      in_eighths.(q) <- 0;
      in_angle.(q) <- 0.
    done;
    hit := 0;
    n_hit := 0;
    (* the other parities, merged with the skeleton by position *)
    let e = ref 0 in
    for i = 0 to !skeleton_len do
      while !e < noted.len && noted.position.(!e) = i do
        let k = !e in
        let neg = noted.neg.(k) in
        let eighths = if neg then -noted.eighths.(k) else noted.eighths.(k) in
        let angle = if neg then -.noted.angle.(k) else noted.angle.(k) in
        out := push_phase_gates ~eighths ~angle noted.qubit.(k) !out;
        incr e
      done;
      if i < !skeleton_len then out := !skeleton.(i) :: !out
    done;
    clear noted;
    skeleton_len := 0;
    for i = 0 to !n_dirty - 1 do
      let q = dirty_qubits.(i) in
      parity.(q) <- 1 lsl q
    done;
    dirty := 0;
    n_dirty := 0
  in
  let add_phase q ~eighths ~angle =
    let p = parity.(q) in
    let linear = p land lnot const_bit in
    (* a constant parity makes the rotation a global phase (constant 1)
       or identity (constant 0); either way nothing to emit *)
    if linear <> 0 then begin
      (* contribution on the linear part flips sign with the constant *)
      let sign = if p land const_bit <> 0 then -1 else 1 in
      if linear land (linear - 1) = 0 then begin
        let i = if linear = 1 lsl q then q else log2 linear in
        if !hit land linear = 0 then begin
          hit := !hit lor linear;
          hit_qubits.(!n_hit) <- i;
          incr n_hit
        end;
        in_eighths.(i) <- in_eighths.(i) + (sign * eighths);
        in_angle.(i) <- in_angle.(i) +. (Float.of_int sign *. angle)
      end
      else begin
        let k =
          find_or_add noted linear ~position:!skeleton_len ~qubit:q
            ~neg:(p land const_bit <> 0)
        in
        noted.eighths.(k) <- noted.eighths.(k) + (sign * eighths);
        noted.angle.(k) <- noted.angle.(k) +. (Float.of_int sign *. angle)
      end
    end
  in
  Circuit.iter
    (fun g ->
      match g with
      | Cnot (cq, t) ->
          to_skeleton g;
          set_parity t (parity.(t) lxor parity.(cq))
      | X q ->
          to_skeleton g;
          set_parity q (parity.(q) lxor const_bit)
      | Z q -> add_phase q ~eighths:4 ~angle:0.
      | S q -> add_phase q ~eighths:2 ~angle:0.
      | Sdg q -> add_phase q ~eighths:(-2) ~angle:0.
      | T q -> add_phase q ~eighths:1 ~angle:0.
      | Tdg q -> add_phase q ~eighths:(-1) ~angle:0.
      | Rz (a, q) -> add_phase q ~eighths:0 ~angle:a
      | Cz _ | Ccz _ | Mcz _ ->
          (* diagonal gates do not change any parity and commute with the
             folded phase rotations: pass through as skeleton *)
          to_skeleton g
      | g ->
          (* barrier: flush the region, emit the gate, start fresh *)
          flush ();
          out := g :: !out)
    c;
  flush ();
  Circuit.of_rev_gates n !out

(** Summary of what {!optimize} achieved. *)
type report = {
  t_before : int;
  t_after : int;
  gates_before : int;
  gates_after : int;
  t_depth_before : int;
  t_depth_after : int;
}

(** [optimize_report c] runs {!optimize} and reports the T-count / T-depth
    deltas (the numbers the paper's Eq. (5) [tpar] step prints). *)
let optimize_report c =
  let c' = optimize c in
  if Obs.enabled () then begin
    Obs.count ~by:(Circuit.t_count c) "qc.tpar.t_before";
    Obs.count ~by:(Circuit.t_count c') "qc.tpar.t_after"
  end;
  ( c',
    { t_before = Circuit.t_count c;
      t_after = Circuit.t_count c';
      gates_before = Circuit.num_gates c;
      gates_after = Circuit.num_gates c';
      t_depth_before = Circuit.t_depth c;
      t_depth_after = Circuit.t_depth c' } )
