open Qc

let test_adjoint () =
  Alcotest.(check bool) "S adjoint" true (Gate.adjoint (Gate.S 0) = Gate.Sdg 0);
  Alcotest.(check bool) "T adjoint" true (Gate.adjoint (Gate.T 1) = Gate.Tdg 1);
  Alcotest.(check bool) "H self-adjoint" true (Gate.adjoint (Gate.H 0) = Gate.H 0);
  Alcotest.(check bool) "Rz negates" true (Gate.adjoint (Gate.Rz (0.5, 0)) = Gate.Rz (-0.5, 0));
  Alcotest.(check bool) "CNOT self-adjoint" true
    (Gate.adjoint (Gate.Cnot (0, 1)) = Gate.Cnot (0, 1))

let test_qubits () =
  Alcotest.(check (list int)) "1q" [ 2 ] (Gate.qubits (Gate.H 2));
  Alcotest.(check (list int)) "cnot" [ 0; 1 ] (Gate.qubits (Gate.Cnot (0, 1)));
  Alcotest.(check (list int)) "mcx" [ 0; 2; 4 ] (Gate.qubits (Gate.Mcx ([ 0; 2 ], 4)))

let test_build_and_stats () =
  let c = Circuit.of_gates 3 [ Gate.H 0; Gate.T 1; Gate.Tdg 1; Gate.Cnot (0, 2) ] in
  Alcotest.(check int) "gates" 4 (Circuit.num_gates c);
  Alcotest.(check int) "t count" 2 (Circuit.t_count c);
  Alcotest.(check int) "qubits" 3 (Circuit.num_qubits c)

let test_out_of_range () =
  match Circuit.add (Circuit.empty 2) (Gate.H 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range accepted"

let test_dagger () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.S 0; Gate.Cnot (0, 1); Gate.T 1 ] in
  let d = Circuit.dagger c in
  Alcotest.(check bool) "dagger order and adjoints" true
    (Circuit.gates d = [ Gate.Tdg 1; Gate.Cnot (0, 1); Gate.Sdg 0; Gate.H 0 ]);
  (* U followed by U† is the identity *)
  Alcotest.(check bool) "identity unitary" true
    (Helpers.same_unitary (Circuit.append c d) (Circuit.empty 2))

let test_depth () =
  (* parallel gates share a layer *)
  let c = Circuit.of_gates 4 [ Gate.H 0; Gate.H 1; Gate.H 2; Gate.H 3 ] in
  Alcotest.(check int) "parallel depth 1" 1 (Circuit.depth c);
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 1 ] in
  Alcotest.(check int) "serial depth 3" 3 (Circuit.depth c)

let test_t_depth () =
  (* two parallel Ts share one T-layer; sequential Ts on one qubit do not *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.T 1 ] in
  Alcotest.(check int) "parallel T depth" 1 (Circuit.t_depth c);
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.H 0; Gate.T 0 ] in
  Alcotest.(check int) "serial T depth" 2 (Circuit.t_depth c);
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  Alcotest.(check int) "clifford only" 0 (Circuit.t_depth c)

let test_map_qubits () =
  let c = Circuit.of_gates 2 [ Gate.Cnot (0, 1) ] in
  let c' = Circuit.map_qubits ~n:4 (fun q -> q + 2) c in
  let s = Statevector.init 4 in
  Statevector.apply s (Gate.X 2);
  Statevector.run_on s c';
  Alcotest.(check bool) "remapped cnot" true (Statevector.is_basis_state s 0b1100)

(* ---- resource counter ---- *)

let test_resources () =
  let c =
    Circuit.of_gates 3
      [ Gate.H 0; Gate.X 1; Gate.Cnot (0, 1); Gate.T 2; Gate.Tdg 2; Gate.S 0; Gate.Z 1;
        Gate.Cz (0, 2) ]
  in
  let r = Resource.count c in
  Alcotest.(check int) "h" 1 r.Resource.h_count;
  Alcotest.(check int) "x" 1 r.Resource.x_count;
  Alcotest.(check int) "cnot" 1 r.Resource.cnot_count;
  Alcotest.(check int) "t" 2 r.Resource.t_count;
  Alcotest.(check int) "s" 1 r.Resource.s_count;
  Alcotest.(check int) "z" 1 r.Resource.z_count;
  Alcotest.(check int) "other (cz)" 1 r.Resource.other_count;
  Alcotest.(check int) "total" 8 r.Resource.total_gates

(* ---- drawing ---- *)

let test_draw_bell () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  let text = Draw.to_string c in
  Alcotest.(check bool) "has two rows" true (List.length (String.split_on_char '\n' (String.trim text)) = 2);
  Alcotest.(check bool) "control marker" true (String.length text > 0 && String.contains text '*');
  Alcotest.(check bool) "target marker" true (String.contains text '@');
  Alcotest.(check bool) "H box" true (String.contains text 'H')

let test_draw_packs_parallel_gates () =
  (* 4 independent H gates share one column *)
  let c = Circuit.of_gates 4 (List.init 4 (fun q -> Gate.H q)) in
  let rows = String.split_on_char '\n' (String.trim (Draw.to_string c)) in
  List.iter
    (fun row ->
      Alcotest.(check bool) "one box per row" true
        (String.length row < 14 && Helpers.contains ~needle:"[H]" row))
    rows;
  (* but order-dependent gates stay in separate columns *)
  let c = Circuit.of_gates 2 [ Gate.Cnot (0, 1); Gate.H 0 ] in
  let rows = String.split_on_char '\n' (String.trim (Draw.to_string c)) in
  let top = List.hd rows in
  Alcotest.(check bool) "H after the CNOT" true
    (Helpers.contains ~needle:"-*-[H]" top)

let test_draw_vertical_wire () =
  (* a CNOT spanning lines 0 and 2 draws a connector on line 1 *)
  let c = Circuit.of_gates 3 [ Gate.Cnot (0, 2) ] in
  let rows = String.split_on_char '\n' (String.trim (Draw.to_string c)) in
  Alcotest.(check bool) "wire on middle row" true (String.contains (List.nth rows 1) '|')

let prop_dagger_involutive =
  Helpers.prop "dagger twice is the original" (Helpers.qcircuit_gen 3 15) (fun c ->
      Circuit.gates (Circuit.dagger (Circuit.dagger c)) = Circuit.gates c)

let prop_depth_bounds =
  Helpers.prop "t_depth <= depth <= gate count" (Helpers.qcircuit_gen 3 15) (fun c ->
      Circuit.t_depth c <= Circuit.depth c && Circuit.depth c <= Circuit.num_gates c)

(* [add_list] / [of_gates] agree with folding [add], the way they were
   built before they checked each gate once and built one record *)
let reference_add_list c gs = List.fold_left Circuit.add c gs

let prop_add_list =
  Helpers.prop "add_list = fold add"
    QCheck2.Gen.(pair (Helpers.qcircuit_gen 4 6) (Helpers.qcircuit_gen 4 20))
    (fun (c, more) ->
      let gs = Circuit.gates more in
      Circuit.add_list c gs = reference_add_list c gs
      && Circuit.of_gates 4 gs = reference_add_list (Circuit.empty 4) gs)

let test_add_list_checks () =
  (match Circuit.add_list (Circuit.empty 2) [ Gate.H 0; Gate.Cnot (1, 2) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range accepted");
  (* one cons cell per gate (3 words), not a circuit record per gate *)
  let gs = List.init 10_000 (fun i -> Gate.T (i mod 3)) in
  let w0 = Gc.minor_words () in
  let c = Circuit.of_gates 3 gs in
  let words = (Gc.minor_words () -. w0) /. 10_000. in
  Alcotest.(check int) "length" 10_000 (Circuit.num_gates c);
  Alcotest.(check bool) (Printf.sprintf "%.1f minor words per gate <= 4" words) true
    (words <= 4.)

let () =
  Alcotest.run "circuit"
    [ ( "gate",
        [ Alcotest.test_case "adjoint" `Quick test_adjoint;
          Alcotest.test_case "qubits" `Quick test_qubits ] );
      ( "circuit",
        [ Alcotest.test_case "build/stats" `Quick test_build_and_stats;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "dagger" `Quick test_dagger;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "t-depth" `Quick test_t_depth;
          Alcotest.test_case "map_qubits" `Quick test_map_qubits;
          Alcotest.test_case "add_list checks, one list" `Quick test_add_list_checks;
          prop_add_list;
          prop_dagger_involutive;
          prop_depth_bounds ] );
      ( "resource",
        [ Alcotest.test_case "counts" `Quick test_resources ] );
      ( "draw",
        [ Alcotest.test_case "bell" `Quick test_draw_bell;
          Alcotest.test_case "parallel packing" `Quick test_draw_packs_parallel_gates;
          Alcotest.test_case "vertical wire" `Quick test_draw_vertical_wire ] ) ]
