(** Shared test utilities: deterministic PRNG streams, QCheck generators
    for the domain types, and comparison helpers. *)

let rng seed = Random.State.make [| seed; 0xBEEF |]

(* --- QCheck generators --- *)

(** Random permutation on [n] variables. *)
let perm_gen n =
  QCheck2.Gen.map
    (fun seed -> Logic.Perm.random (rng seed) n)
    QCheck2.Gen.(int_bound 1_000_000)

(** Random truth table on [n] variables. *)
let tt_gen n =
  QCheck2.Gen.map
    (fun seed -> Logic.Truth_table.random (rng seed) n)
    QCheck2.Gen.(int_bound 1_000_000)

(** Random Boolean expression on [vars] variables. *)
let bexpr_gen ?(vars = 4) ?(depth = 4) () =
  QCheck2.Gen.map
    (fun seed -> Logic.Bexpr.random (rng seed) ~vars ~depth)
    QCheck2.Gen.(int_bound 1_000_000)

(** Random MCT gate on [n] lines. *)
let mct_gen n =
  let open QCheck2.Gen in
  let* target = int_bound (n - 1) in
  let* pos = int_bound ((1 lsl n) - 1) in
  let* neg = int_bound ((1 lsl n) - 1) in
  let tmask = lnot (1 lsl target) in
  let pos = pos land tmask in
  let neg = neg land tmask land lnot pos in
  return (Rev.Mct.make ~target ~pos ~neg)

(** Random reversible circuit on [n] lines with [gates] gates. *)
let rcircuit_gen n gates =
  QCheck2.Gen.map (Rev.Rcircuit.of_gates n) (QCheck2.Gen.list_size (QCheck2.Gen.return gates) (mct_gen n))

(** Random Clifford+T(+X, CZ, CCZ) circuit on [n] qubits, [len] gates. *)
let qcircuit_gen ?(diagonals = true) n len =
  let open QCheck2.Gen in
  let gate =
    let* k = int_bound (if diagonals then 9 else 7) in
    let* q = int_bound (n - 1) in
    let* q2 = int_bound (n - 1) in
    let q2 = if q2 = q then (q + 1) mod n else q2 in
    match k with
    | 0 -> return (Qc.Gate.H q)
    | 1 -> return (Qc.Gate.T q)
    | 2 -> return (Qc.Gate.Tdg q)
    | 3 -> return (Qc.Gate.S q)
    | 4 -> return (Qc.Gate.Sdg q)
    | 5 -> return (Qc.Gate.X q)
    | 6 -> return (Qc.Gate.Z q)
    | 7 -> return (Qc.Gate.Cnot (q, q2))
    | 8 -> return (Qc.Gate.Cz (q, q2))
    | _ ->
        if n >= 3 then
          let a = q and b = q2 in
          let c = (max a b + 1) mod n in
          let c = if c = a || c = b then (c + 1) mod n else c in
          if c = a || c = b then return (Qc.Gate.Cz (a, b))
          else return (Qc.Gate.Ccz (a, b, c))
        else return (Qc.Gate.Cz (q, q2))
  in
  QCheck2.Gen.map (Qc.Circuit.of_gates n) (list_size (return len) gate)

(** [contains ~needle haystack] is plain substring search. *)
let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- assertions --- *)

let check_perm_eq msg expected actual =
  Alcotest.(check bool) msg true (Logic.Perm.equal expected actual)

let check_tt_eq msg expected actual =
  Alcotest.(check bool) msg true (Logic.Truth_table.equal expected actual)

(** Register a QCheck2 property as an alcotest case. *)
let prop name ?(count = 100) ?print gen law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?print gen law)

(** Unitary equivalence of two circuits (exact). *)
let same_unitary a b =
  Qc.Unitary.equal (Qc.Unitary.of_circuit a) (Qc.Unitary.of_circuit b)

(** Unitary equivalence up to global phase. *)
let same_unitary_phase a b =
  Qc.Unitary.equal_up_to_phase (Qc.Unitary.of_circuit a) (Qc.Unitary.of_circuit b)

(* --- per-index reference kernels --- *)

(* The dense per-gate kernels as they were when each walked all 2^n
   indices of a flat state (re, im) and tested every one: the reference
   the kernels that step over their representatives must equal bit for
   bit. *)
let ref_1q (re : float array) (im : float array) bit (m00 : Complex.t) (m01 : Complex.t)
    (m10 : Complex.t) (m11 : Complex.t) =
  for x = 0 to Array.length re - 1 do
    if x land bit = 0 then begin
      let y = x lor bit in
      let ar = re.(x) and ai = im.(x) and br = re.(y) and bi = im.(y) in
      re.(x) <- (m00.re *. ar) -. (m00.im *. ai) +. (m01.re *. br) -. (m01.im *. bi);
      im.(x) <- (m00.re *. ai) +. (m00.im *. ar) +. (m01.re *. bi) +. (m01.im *. br);
      re.(y) <- (m10.re *. ar) -. (m10.im *. ai) +. (m11.re *. br) -. (m11.im *. bi);
      im.(y) <- (m10.re *. ai) +. (m10.im *. ar) +. (m11.re *. bi) +. (m11.im *. br)
    end
  done

let ref_swap (re : float array) (im : float array) mask want tbit =
  for x = 0 to Array.length re - 1 do
    if x land tbit = 0 && x land mask = want then begin
      let y = x lor tbit in
      let r = re.(x) and i = im.(x) in
      re.(x) <- re.(y);
      im.(x) <- im.(y);
      re.(y) <- r;
      im.(y) <- i
    end
  done

let ref_phase (re : float array) (im : float array) mask want (p : Complex.t) =
  for x = 0 to Array.length re - 1 do
    if x land mask = want then begin
      let r = re.(x) and i = im.(x) in
      re.(x) <- (p.re *. r) -. (p.im *. i);
      im.(x) <- (p.re *. i) +. (p.im *. r)
    end
  done

let ref_swap2 (re : float array) (im : float array) ab bb =
  for x = 0 to Array.length re - 1 do
    if x land ab <> 0 && x land bb = 0 then begin
      let y = (x lxor ab) lor bb in
      let r = re.(x) and i = im.(x) in
      re.(x) <- re.(y);
      im.(x) <- im.(y);
      re.(y) <- r;
      im.(y) <- i
    end
  done

(** [reference_apply re im g] applies gate [g] to the flat state
    [(re, im)] with the per-index kernels, dispatched as
    [Statevector.apply] dispatches. *)
let reference_apply re im (g : Qc.Gate.t) =
  let open Qc.Statevector in
  let mask_of qs = List.fold_left (fun m q -> m lor (1 lsl q)) 0 qs in
  let phase m p = ref_phase re im m m p in
  match g with
  | X q -> ref_swap re im 0 0 (1 lsl q)
  | Y q -> ref_1q re im (1 lsl q) c0 cmi ci c0
  | Z q -> phase (1 lsl q) cm1
  | S q -> phase (1 lsl q) ci
  | Sdg q -> phase (1 lsl q) cmi
  | T q -> phase (1 lsl q) omega
  | Tdg q -> phase (1 lsl q) omega_bar
  | Rz (a, q) ->
      let h = a /. 2. in
      let bit = 1 lsl q in
      ref_phase re im bit 0 Complex.{ re = cos h; im = -.sin h };
      ref_phase re im bit bit Complex.{ re = cos h; im = sin h }
  | H q -> ref_1q re im (1 lsl q) ch ch ch chm
  | Cnot (c, t) -> ref_swap re im (1 lsl c) (1 lsl c) (1 lsl t)
  | Cz (a, b) -> phase (mask_of [ a; b ]) cm1
  | Swap (a, b) -> ref_swap2 re im (1 lsl a) (1 lsl b)
  | Ccx (a, b, t) -> ref_swap re im (mask_of [ a; b ]) (mask_of [ a; b ]) (1 lsl t)
  | Ccz (a, b, c) -> phase (mask_of [ a; b; c ]) cm1
  | Mcx (cs, t) -> ref_swap re im (mask_of cs) (mask_of cs) (1 lsl t)
  | Mcz qs -> phase (mask_of qs) cm1
