open Qc

let test_tt_merges_to_s () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "T count 0" 0 (Circuit.t_count c');
  Alcotest.(check bool) "equals S" true (Helpers.same_unitary_phase c c')

let test_t_tdg_cancels () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.Tdg 0 ] in
  Alcotest.(check int) "cancels" 0 (Circuit.num_gates (Tpar.optimize c))

let test_merge_through_cnot () =
  (* T(0); CNOT(0,1); T(0): qubit 0's parity is unchanged by the CNOT, so
     the two Ts merge into S *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.Cnot (0, 1); Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_parity_matching_across_wires () =
  (* CNOT(0,1) puts x0^x1 on wire 1; T there, then CNOT(1,0)? craft a case
     where the same parity appears on different wires and phases merge *)
  let c =
    Circuit.of_gates 2
      [ Gate.Cnot (0, 1); Gate.T 1; Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.T 0;
        Gate.Cnot (1, 0) ]
  in
  (* the parity x0^x1 appears on wire 1 (first T) and later on wire 0
     (second T): the rotations must merge *)
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged to S" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_h_is_barrier () =
  (* T; H; T must NOT merge *)
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.H 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "two Ts remain" 2 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_x_conjugation () =
  (* X; T; X equals T† up to global phase — the negated-parity bookkeeping *)
  let c = Circuit.of_gates 1 [ Gate.X 0; Gate.T 0; Gate.X 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "phases cancel" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_rz_angles_fold () =
  let c = Circuit.of_gates 1 [ Gate.Rz (0.3, 0); Gate.Rz (0.4, 0) ] in
  let c' = Tpar.optimize c in
  (match Circuit.gates c' with
  | [ Gate.Rz (a, 0) ] -> Alcotest.(check (float 1e-12)) "summed" 0.7 a
  | gs -> Alcotest.failf "expected one Rz, got %d gates" (List.length gs));
  let c = Circuit.of_gates 1 [ Gate.Rz (0.3, 0); Gate.Rz (-0.3, 0) ] in
  Alcotest.(check int) "cancel to nothing" 0 (Circuit.num_gates (Tpar.optimize c))

let test_ccz_overlap_folding () =
  (* the motivating case: two CCZs sharing two controls fold 14 T -> 8 T *)
  let c = Circuit.of_gates 4 (Clifford_t.ccz_7t 0 1 2 @ Clifford_t.ccz_7t 0 1 3) in
  let c', rep = Tpar.optimize_report c in
  Alcotest.(check int) "before" 14 rep.Tpar.t_before;
  Alcotest.(check int) "after" 8 rep.Tpar.t_after;
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_diagonal_passthrough () =
  (* CZ between two Ts on the same parity must not block merging *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.Cz (0, 1); Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged through CZ" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_report_counts () =
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.T 0; Gate.H 1 ] in
  let _, rep = Tpar.optimize_report c in
  Alcotest.(check int) "t before" 2 rep.Tpar.t_before;
  Alcotest.(check int) "t after" 0 rep.Tpar.t_after

let prop_preserves_unitary =
  Helpers.prop "tpar preserves the unitary up to global phase" ~count:200
    (Helpers.qcircuit_gen 3 25)
    (fun c -> Helpers.same_unitary_phase c (Tpar.optimize c))

let prop_never_increases_t =
  Helpers.prop "tpar never increases the T-count" (Helpers.qcircuit_gen 4 25) (fun c ->
      Circuit.t_count (Tpar.optimize c) <= Circuit.t_count c)

let prop_idempotent_t_count =
  Helpers.prop "tpar is idempotent on the T-count" (Helpers.qcircuit_gen 3 20) (fun c ->
      let once = Tpar.optimize c in
      Circuit.t_count (Tpar.optimize once) = Circuit.t_count once)

(* ---- peephole Opt ---- *)

let test_opt_cancellation () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (0, 1) ] in
  Alcotest.(check int) "all cancel" 0 (Circuit.num_gates (Opt.simplify c))

let test_opt_fusion () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.T 0 ] in
  (match Circuit.gates (Opt.simplify c) with
  | [ Gate.S 0 ] -> ()
  | _ -> Alcotest.fail "TT should fuse to S");
  let c = Circuit.of_gates 1 [ Gate.S 0; Gate.S 0 ] in
  match Circuit.gates (Opt.simplify c) with
  | [ Gate.Z 0 ] -> ()
  | _ -> Alcotest.fail "SS should fuse to Z"

let test_opt_across_disjoint () =
  let c = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (1, 2); Gate.H 0 ] in
  let c' = Opt.simplify c in
  Alcotest.(check int) "H pair cancels across disjoint CNOT" 1 (Circuit.num_gates c')

let test_opt_two_gate_fusion_is_no_rewrite () =
  (* S·T and Z·T fuse back into the same two gates (eighths 3 and 5);
     taking that as a rewrite made [simplify] spin until its budget ran
     out and never reach the rewrites after it *)
  let none what gates =
    Alcotest.(check bool) what true (Opt.rewrite_once gates = None)
  in
  none "S T is no rewrite" [| Gate.S 0; Gate.T 0 |];
  none "Z T is no rewrite" [| Gate.Z 0; Gate.T 0 |];
  (* a later fusion is still found past such a pair *)
  let c = Circuit.of_gates 2 [ Gate.S 0; Gate.T 0; Gate.H 1; Gate.H 1 ] in
  Alcotest.(check int) "H pair after S T cancels" 2 (Circuit.num_gates (Opt.simplify c))

let prop_opt_preserves_unitary =
  Helpers.prop "peephole preserves the unitary exactly" ~count:150
    (Helpers.qcircuit_gen 3 20)
    (fun c -> Helpers.same_unitary c (Opt.simplify c))

let prop_opt_never_grows =
  Helpers.prop "peephole never grows" (Helpers.qcircuit_gen 3 20) (fun c ->
      Circuit.num_gates (Opt.simplify c) <= Circuit.num_gates c)

let () =
  Alcotest.run "tpar"
    [ ( "tpar",
        [ Alcotest.test_case "TT -> S" `Quick test_tt_merges_to_s;
          Alcotest.test_case "T T-dagger cancels" `Quick test_t_tdg_cancels;
          Alcotest.test_case "merge through CNOT" `Quick test_merge_through_cnot;
          Alcotest.test_case "cross-wire parity" `Quick test_parity_matching_across_wires;
          Alcotest.test_case "H is a barrier" `Quick test_h_is_barrier;
          Alcotest.test_case "X conjugation" `Quick test_x_conjugation;
          Alcotest.test_case "Rz folding" `Quick test_rz_angles_fold;
          Alcotest.test_case "CCZ overlap folds 14->8" `Quick test_ccz_overlap_folding;
          Alcotest.test_case "diagonal pass-through" `Quick test_diagonal_passthrough;
          Alcotest.test_case "report" `Quick test_report_counts;
          prop_preserves_unitary;
          prop_never_increases_t;
          prop_idempotent_t_count ] );
      ( "opt",
        [ Alcotest.test_case "cancellation" `Quick test_opt_cancellation;
          Alcotest.test_case "fusion" `Quick test_opt_fusion;
          Alcotest.test_case "across disjoint" `Quick test_opt_across_disjoint;
          Alcotest.test_case "two-gate fusion is no rewrite" `Quick
            test_opt_two_gate_fusion_is_no_rewrite;
          prop_opt_preserves_unitary;
          prop_opt_never_grows ] ) ]
