open Qc

let complex_eq ?(eps = 1e-12) (a : Complex.t) (b : Complex.t) =
  Float.abs (a.re -. b.re) < eps && Float.abs (a.im -. b.im) < eps

let test_init () =
  let s = Statevector.init 3 in
  Alcotest.(check (float 1e-12)) "all weight on |000>" 1. (Statevector.prob s 0);
  Alcotest.(check (float 1e-12)) "norm" 1. (Statevector.norm2 s)

let test_x_z () =
  let s = Statevector.init 2 in
  Statevector.apply s (Gate.X 1);
  Alcotest.(check bool) "|10>" true (Statevector.is_basis_state s 0b10);
  Statevector.apply s (Gate.Z 1);
  Alcotest.(check bool) "Z phase on |1>" true
    (complex_eq (Statevector.amplitude s 0b10) Complex.{ re = -1.; im = 0. })

let test_hadamard () =
  let s = Statevector.init 1 in
  Statevector.apply s (Gate.H 0);
  Alcotest.(check (float 1e-12)) "p0" 0.5 (Statevector.prob s 0);
  Alcotest.(check (float 1e-12)) "p1" 0.5 (Statevector.prob s 1);
  Statevector.apply s (Gate.H 0);
  Alcotest.(check bool) "HH = I" true (Statevector.is_basis_state s 0)

let test_bell () =
  let s = Statevector.run (Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ]) in
  Alcotest.(check (float 1e-12)) "p(00)" 0.5 (Statevector.prob s 0);
  Alcotest.(check (float 1e-12)) "p(11)" 0.5 (Statevector.prob s 3);
  Alcotest.(check (float 1e-12)) "p(01)" 0. (Statevector.prob s 1)

let test_phase_gates () =
  (* T|+> then T†|+> returns to |+>; S = T^2; Z = S^2 *)
  let s = Statevector.init 1 in
  Statevector.apply s (Gate.H 0);
  Statevector.apply s (Gate.T 0);
  Statevector.apply s (Gate.T 0);
  let s2 = Statevector.init 1 in
  Statevector.apply s2 (Gate.H 0);
  Statevector.apply s2 (Gate.S 0);
  Alcotest.(check bool) "TT = S" true (Statevector.equal_up_to_phase s s2);
  Statevector.apply s (Gate.Sdg 0);
  Statevector.apply s (Gate.H 0);
  Alcotest.(check bool) "returns to |0>" true (Statevector.is_basis_state s 0)

let test_rz_matches_t () =
  (* Rz(pi/4) equals T up to global phase *)
  let a = Statevector.init 1 in
  Statevector.apply a (Gate.H 0);
  Statevector.apply a (Gate.Rz (Float.pi /. 4., 0));
  let b = Statevector.init 1 in
  Statevector.apply b (Gate.H 0);
  Statevector.apply b (Gate.T 0);
  Alcotest.(check bool) "rz(pi/4) ~ T" true (Statevector.equal_up_to_phase a b)

let test_y_gate () =
  let s = Statevector.init 1 in
  Statevector.apply s (Gate.Y 0);
  Alcotest.(check bool) "Y|0> = i|1>" true
    (complex_eq (Statevector.amplitude s 1) Complex.{ re = 0.; im = 1. })

let test_swap () =
  let s = Statevector.init 3 in
  Statevector.apply s (Gate.X 0);
  Statevector.apply s (Gate.Swap (0, 2));
  Alcotest.(check bool) "swapped" true (Statevector.is_basis_state s 0b100)

let test_toffoli_mcx () =
  let s = Statevector.init 4 in
  Statevector.apply s (Gate.X 0);
  Statevector.apply s (Gate.X 1);
  Statevector.apply s (Gate.X 2);
  Statevector.apply s (Gate.Mcx ([ 0; 1; 2 ], 3));
  Alcotest.(check bool) "mcx fires" true (Statevector.is_basis_state s 0b1111);
  Statevector.apply s (Gate.X 1);
  Statevector.apply s (Gate.Mcx ([ 0; 1; 2 ], 3));
  Alcotest.(check bool) "mcx blocked" true (Statevector.is_basis_state s 0b1101)

let test_cz_ccz () =
  let s = Statevector.init 2 in
  Statevector.apply s (Gate.X 0);
  Statevector.apply s (Gate.X 1);
  Statevector.apply s (Gate.Cz (0, 1));
  Alcotest.(check bool) "cz phase" true
    (complex_eq (Statevector.amplitude s 3) Complex.{ re = -1.; im = 0. });
  (* CZ is symmetric *)
  let a = Statevector.run (Circuit.of_gates 2 [ Gate.H 0; Gate.H 1; Gate.Cz (0, 1) ]) in
  let b = Statevector.run (Circuit.of_gates 2 [ Gate.H 0; Gate.H 1; Gate.Cz (1, 0) ]) in
  Alcotest.(check bool) "cz symmetric" true (Statevector.equal_up_to_phase a b)

(* the kernels index slabs without bounds checks, so [apply] refuses a
   qubit outside the state, whichever kernel the gate would take *)
let test_qubit_out_of_range () =
  let s = Statevector.init 3 in
  List.iter
    (fun g ->
      Alcotest.check_raises (Fmt.to_to_string Gate.pp g)
        (Invalid_argument "Statevector.apply: qubit out of range") (fun () ->
          Statevector.apply s g))
    [ Gate.X 3; Gate.H (-1); Gate.T 3; Gate.Rz (0.5, 7); Gate.Cnot (0, 3); Gate.Cz (-1, 1);
      Gate.Swap (1, 3); Gate.Ccx (0, 1, 3); Gate.Mcx ([ 0; 4 ], 1); Gate.Mcz [ 0; 1; 3 ] ];
  Alcotest.(check bool) "state untouched" true (Statevector.is_basis_state s 0)

let test_sample_deterministic () =
  let s = Statevector.init 3 in
  Statevector.apply s (Gate.X 1);
  let st = Helpers.rng 1 in
  for _ = 1 to 20 do
    Alcotest.(check int) "deterministic sample" 0b010 (Statevector.sample st s)
  done

let test_sample_distribution () =
  let s = Statevector.run (Circuit.of_gates 1 [ Gate.H 0 ]) in
  let st = Helpers.rng 2 in
  let ones = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    if Statevector.sample st s = 1 then incr ones
  done;
  let f = Float.of_int !ones /. Float.of_int n in
  Alcotest.(check bool) "roughly balanced" true (f > 0.4 && f < 0.6)

let test_most_likely () =
  let s = Statevector.run (Circuit.of_gates 2 [ Gate.X 1 ]) in
  Alcotest.(check int) "most likely" 0b10 (Statevector.most_likely s);
  (* a two-way tie between |10> and |11>: the first maximum wins *)
  let tie = Statevector.run (Circuit.of_gates 2 [ Gate.X 1; Gate.H 0 ]) in
  Alcotest.(check int) "tie picks the first" 0b10 (Statevector.most_likely tie);
  (* 4-amplitude slabs: the maximum sits in the third slab, and a tie
     across slabs still picks the lower index *)
  Statevector.set_shard_bits (Some 2);
  Fun.protect
    ~finally:(fun () -> Statevector.set_shard_bits None)
    (fun () ->
      let s = Statevector.run (Circuit.of_gates 4 [ Gate.X 1; Gate.X 3 ]) in
      Alcotest.(check int) "sharded most likely" 0b1010 (Statevector.most_likely s);
      let tie = Statevector.run (Circuit.of_gates 4 [ Gate.X 1; Gate.H 3 ]) in
      Alcotest.(check int) "sharded tie picks the first" 0b0010
        (Statevector.most_likely tie))

(* ---- unitary extraction ---- *)

let test_unitary_identity () =
  let u = Unitary.of_circuit (Circuit.of_gates 2 [ Gate.H 0; Gate.H 0 ]) in
  let id = Unitary.of_circuit (Circuit.empty 2) in
  Alcotest.(check bool) "HH = I" true (Unitary.equal u id)

let test_unitary_global_phase () =
  (* Z X Z X = -I: equal to identity only up to phase *)
  let c = Circuit.of_gates 1 [ Gate.Z 0; Gate.X 0; Gate.Z 0; Gate.X 0 ] in
  let u = Unitary.of_circuit c and id = Unitary.of_circuit (Circuit.empty 1) in
  Alcotest.(check bool) "not exactly I" false (Unitary.equal u id);
  Alcotest.(check bool) "I up to phase" true (Unitary.equal_up_to_phase u id)

let test_is_permutation () =
  let c = Circuit.of_gates 2 [ Gate.X 0; Gate.Cnot (0, 1) ] in
  (match Unitary.is_permutation (Unitary.of_circuit c) with
  | Some p -> Alcotest.(check bool) "classical circuit" true (p.(0) = 3)
  | None -> Alcotest.fail "permutation not detected");
  match Unitary.is_permutation (Unitary.of_circuit (Circuit.of_gates 1 [ Gate.H 0 ])) with
  | None -> ()
  | Some _ -> Alcotest.fail "H is not a permutation"

let prop_norm_preserved =
  Helpers.prop "circuits preserve the norm" (Helpers.qcircuit_gen 4 20) (fun c ->
      Float.abs (Statevector.norm2 (Statevector.run c) -. 1.) < 1e-9)

let prop_dagger_cancels =
  Helpers.prop "running U then U-dagger returns to |0…0>" (Helpers.qcircuit_gen 3 12)
    (fun c ->
      let s = Statevector.run (Circuit.append c (Circuit.dagger c)) in
      Statevector.is_basis_state ~eps:1e-9 s 0)

let prop_classical_circuits_are_permutations =
  Helpers.prop "X/CNOT/Toffoli circuits act classically"
    (QCheck2.Gen.map
       (fun seed ->
         let st = Helpers.rng seed in
         Circuit.of_gates 3
           (List.init 10 (fun _ ->
                match Random.State.int st 3 with
                | 0 -> Gate.X (Random.State.int st 3)
                | 1 ->
                    let a = Random.State.int st 3 in
                    Gate.Cnot (a, (a + 1) mod 3)
                | _ -> Gate.Ccx (0, 1, 2))))
       QCheck2.Gen.(int_bound 100000))
    (fun c -> Unitary.is_permutation (Unitary.of_circuit c) <> None)

let () =
  Alcotest.run "statevector"
    [ ( "statevector",
        [ Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "X/Z" `Quick test_x_z;
          Alcotest.test_case "hadamard" `Quick test_hadamard;
          Alcotest.test_case "bell state" `Quick test_bell;
          Alcotest.test_case "phase gates" `Quick test_phase_gates;
          Alcotest.test_case "rz vs T" `Quick test_rz_matches_t;
          Alcotest.test_case "Y" `Quick test_y_gate;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "toffoli/mcx" `Quick test_toffoli_mcx;
          Alcotest.test_case "cz/ccz" `Quick test_cz_ccz;
          Alcotest.test_case "sampling determinism" `Quick test_sample_deterministic;
          Alcotest.test_case "sampling distribution" `Quick test_sample_distribution;
          Alcotest.test_case "most likely" `Quick test_most_likely;
          prop_norm_preserved;
          prop_dagger_cancels;
          Alcotest.test_case "qubit out of range" `Quick test_qubit_out_of_range ] );
      ( "unitary",
        [ Alcotest.test_case "identity" `Quick test_unitary_identity;
          Alcotest.test_case "global phase" `Quick test_unitary_global_phase;
          Alcotest.test_case "permutation detection" `Quick test_is_permutation;
          prop_classical_circuits_are_permutations ] ) ]
