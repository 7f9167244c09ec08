open Qc

let test_initial_state () =
  let t = Stabilizer.create 3 in
  let out, det = Stabilizer.measure_all t in
  Alcotest.(check int) "measures 0" 0 out;
  Alcotest.(check bool) "deterministic" true det

let test_x_and_cnot () =
  let t = Stabilizer.create 3 in
  Stabilizer.apply t (Gate.X 0);
  Stabilizer.apply t (Gate.Cnot (0, 2));
  let out, det = Stabilizer.measure_all t in
  Alcotest.(check int) "|101>" 0b101 out;
  Alcotest.(check bool) "deterministic" true det

let test_hh_identity () =
  let t = Stabilizer.create 1 in
  Stabilizer.apply t (Gate.H 0);
  Stabilizer.apply t (Gate.H 0);
  let out, det = Stabilizer.measure_all t in
  Alcotest.(check (pair int bool)) "HH=I" (0, true) (out, det)

let test_s_gates () =
  (* HS²H = HZH = X *)
  let t = Stabilizer.create 1 in
  List.iter (Stabilizer.apply t) [ Gate.H 0; Gate.S 0; Gate.S 0; Gate.H 0 ];
  Alcotest.(check (pair int bool)) "HZH=X" (1, true) (Stabilizer.measure_all t);
  (* S S† = I on a superposition *)
  let t = Stabilizer.create 1 in
  List.iter (Stabilizer.apply t) [ Gate.H 0; Gate.S 0; Gate.Sdg 0; Gate.H 0 ];
  Alcotest.(check (pair int bool)) "S Sdg cancels" (0, true) (Stabilizer.measure_all t)

let test_y_gate () =
  (* Y|0> = i|1>: measurement gives 1 deterministically *)
  let t = Stabilizer.create 1 in
  Stabilizer.apply t (Gate.Y 0);
  Alcotest.(check (pair int bool)) "Y flips" (1, true) (Stabilizer.measure_all t)

let test_bell_correlations () =
  let st = Helpers.rng 12 in
  let zeros = ref 0 and threes = ref 0 in
  for _ = 1 to 500 do
    let t = Stabilizer.create 2 in
    Stabilizer.apply t (Gate.H 0);
    Stabilizer.apply t (Gate.Cnot (0, 1));
    let out, det = Stabilizer.measure_all ~st t in
    Alcotest.(check bool) "random branch" false det;
    (match out with
    | 0 -> incr zeros
    | 3 -> incr threes
    | _ -> Alcotest.failf "anticorrelated outcome %d" out);
  done;
  Alcotest.(check bool) "both branches seen" true (!zeros > 150 && !threes > 150)

let test_measurement_collapse () =
  (* measuring the same qubit twice gives the same answer *)
  let st = Helpers.rng 3 in
  for _ = 1 to 50 do
    let t = Stabilizer.create 2 in
    Stabilizer.apply t (Gate.H 0);
    Stabilizer.apply t (Gate.Cnot (0, 1));
    let b1, _ = Stabilizer.measure ~st t 0 in
    let b2, det2 = Stabilizer.measure ~st t 0 in
    Alcotest.(check bool) "collapsed" true (b1 = b2 && det2);
    (* and the partner is perfectly correlated *)
    let b3, det3 = Stabilizer.measure ~st t 1 in
    Alcotest.(check bool) "correlated partner" true (b3 = b1 && det3)
  done

let test_ghz () =
  let st = Helpers.rng 5 in
  for _ = 1 to 100 do
    let t = Stabilizer.create 5 in
    Stabilizer.apply t (Gate.H 0);
    for q = 1 to 4 do
      Stabilizer.apply t (Gate.Cnot (0, q))
    done;
    let out, _ = Stabilizer.measure_all ~st t in
    Alcotest.(check bool) "GHZ: all zeros or all ones" true (out = 0 || out = 31)
  done

let test_not_clifford_rejected () =
  let t = Stabilizer.create 1 in
  (match Stabilizer.apply t (Gate.T 0) with
  | exception Stabilizer.Not_clifford _ -> ()
  | _ -> Alcotest.fail "T accepted");
  Alcotest.(check bool) "detector" false
    (Stabilizer.is_clifford_circuit (Circuit.of_gates 1 [ Gate.T 0 ]));
  Alcotest.(check bool) "detector ok" true
    (Stabilizer.is_clifford_circuit (Circuit.of_gates 2 [ Gate.H 0; Gate.Cz (0, 1) ]))

let test_agreement_with_statevector () =
  (* deterministic-outcome circuits must agree with the dense simulator *)
  let st = Helpers.rng 17 in
  for _ = 1 to 100 do
    let n = 1 + Random.State.int st 4 in
    let gates =
      List.init (5 + Random.State.int st 20) (fun _ ->
          let q = Random.State.int st n in
          let q2 = if n = 1 then q else (q + 1 + Random.State.int st (n - 1)) mod n in
          match Random.State.int st 8 with
          | 0 -> Gate.H q
          | 1 -> Gate.S q
          | 2 -> Gate.Sdg q
          | 3 -> Gate.X q
          | 4 -> Gate.Z q
          | 5 -> Gate.Y q
          | 6 when n > 1 -> Gate.Cnot (q, q2)
          | _ when n > 1 -> Gate.Cz (q, q2)
          | _ -> Gate.H q)
    in
    let c = Circuit.of_gates n gates in
    let probs = Statevector.probabilities (Statevector.run c) in
    let out, det = Stabilizer.measure_all ~st (Stabilizer.run c) in
    if det then
      Alcotest.(check bool) "deterministic outcome matches" true (probs.(out) > 0.999)
    else Alcotest.(check bool) "sampled outcome in support" true (probs.(out) > 1e-9)
  done

let test_wide_hidden_shift () =
  (* E10: 48-qubit inner-product hidden shift, far beyond state vectors *)
  let s = 0b101100111000 in
  let inst = Core.Hidden_shift.Inner_product { n = 24; s } in
  Alcotest.(check int) "48-qubit shift" s (Core.Hidden_shift.solve_clifford inst)

let test_solve_clifford_rejects () =
  (* a nonlinear permutation (the Toffoli permutation itself) forces
     Toffoli gates into the oracle, which the stabilizer backend rejects.
     (n = 2 instances are always affine, hence always Clifford.) *)
  let pi = Logic.Perm.of_list [ 0; 1; 2; 3; 4; 5; 7; 6 ] in
  let mm = Logic.Bent.mm pi in
  let inst = Core.Hidden_shift.Mm { mm; s = 3; synth = Pq.Oracles.Tbs } in
  Alcotest.(check bool) "instance is not Clifford" false
    (Stabilizer.is_clifford_circuit (Core.Hidden_shift.build inst));
  match Core.Hidden_shift.solve_clifford inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-Clifford instance accepted"

let prop_clifford_sampling_consistency =
  Helpers.prop "stabilizer never samples outside the state-vector support" ~count:60
    (Helpers.qcircuit_gen ~diagonals:true 3 15)
    (fun c ->
      let clifford =
        Circuit.of_gates 3
          (List.filter
             (function Gate.T _ | Gate.Tdg _ | Gate.Ccz _ -> false | _ -> true)
             (Circuit.gates c))
      in
      let probs = Statevector.probabilities (Statevector.run clifford) in
      let st = Helpers.rng 1 in
      let out, _ = Stabilizer.measure_all ~st (Stabilizer.run clifford) in
      probs.(out) > 1e-9)

(* --- the computational-basis sampler --- *)

(* Every point of the sampler's affine support [x0 ⊕ span basis]. *)
let support (smp : Stabilizer.sampler) =
  let k = Array.length smp.Stabilizer.basis in
  List.init (1 lsl k) (fun subset ->
      let x = ref smp.Stabilizer.x0 in
      Array.iteri (fun i b -> if (subset lsr i) land 1 = 1 then x := !x lxor b) smp.basis;
      !x)

let clifford_only n c =
  Circuit.of_gates n
    (List.filter
       (function Gate.T _ | Gate.Tdg _ | Gate.Ccz _ -> false | _ -> true)
       (Circuit.gates c))

let prop_sampler_support =
  Helpers.prop "sampler support = nonzero statevector probabilities, uniform" ~count:150
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 1_000_000))
    (fun (n, seed) ->
      let n = max 2 n in
      let c =
        clifford_only n
          (QCheck2.Gen.generate1 ~rand:(Helpers.rng seed) (Helpers.qcircuit_gen n 25))
      in
      let probs = Statevector.probabilities (Statevector.run c) in
      let t = Stabilizer.run c in
      let smp = Stabilizer.sampler t in
      let pts = support smp in
      let uniform = 1. /. float_of_int (List.length pts) in
      (* the sampler leaves the tableau as it was *)
      Stabilizer.sampler t = smp
      && List.length (List.sort_uniq compare pts) = List.length pts
      && Array.for_all Fun.id
           (Array.mapi
              (fun x p ->
                if List.mem x pts then Float.abs (p -. uniform) < 1e-9 else p < 1e-9)
              probs))

let test_sample_uniform () =
  (* H on three qubits, entangled into two more: 8 equally likely
     outcomes, and the draws must spread evenly over exactly those *)
  let c =
    Circuit.of_gates 5
      [ Gate.H 0; Gate.H 1; Gate.H 4; Gate.Cnot (0, 2); Gate.Cnot (1, 3); Gate.S 4;
        Gate.Cz (2, 4) ]
  in
  let smp = Stabilizer.sampler (Stabilizer.run c) in
  let pts = support smp in
  Alcotest.(check int) "support size" 8 (List.length pts);
  let st = Helpers.rng 77 and draws = 8000 in
  let hits = Hashtbl.create 8 in
  for _ = 1 to draws do
    let x = Stabilizer.sample smp st in
    Hashtbl.replace hits x (1 + Option.value ~default:0 (Hashtbl.find_opt hits x))
  done;
  Alcotest.(check int) "only support points drawn" 8 (Hashtbl.length hits);
  let e = float_of_int draws /. 8. in
  let chi2 =
    Hashtbl.fold (fun _ k acc -> acc +. (((float_of_int k -. e) ** 2.) /. e)) hits 0.
  in
  (* df 7: the 0.1% tail starts at 24.3 *)
  Alcotest.(check bool) (Printf.sprintf "uniform (chi-square %.1f)" chi2) true (chi2 < 24.3)

let test_sampler_width () =
  (match Stabilizer.sampler (Stabilizer.create 63) with
  | _ -> Alcotest.fail "63-qubit sampler accepted"
  | exception Invalid_argument _ -> ());
  let t = Stabilizer.create 62 in
  Stabilizer.apply t (Gate.X 61);
  Stabilizer.apply t (Gate.H 0);
  let smp = Stabilizer.sampler t in
  Alcotest.(check (list int)) "top bit fits" [ 1 lsl 61; (1 lsl 61) lor 1 ]
    (List.sort compare (support smp))

let () =
  Alcotest.run "stabilizer"
    [ ( "stabilizer",
        [ Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "X and CNOT" `Quick test_x_and_cnot;
          Alcotest.test_case "HH identity" `Quick test_hh_identity;
          Alcotest.test_case "S gates" `Quick test_s_gates;
          Alcotest.test_case "Y" `Quick test_y_gate;
          Alcotest.test_case "Bell correlations" `Quick test_bell_correlations;
          Alcotest.test_case "collapse" `Quick test_measurement_collapse;
          Alcotest.test_case "GHZ" `Quick test_ghz;
          Alcotest.test_case "non-Clifford rejected" `Quick test_not_clifford_rejected;
          Alcotest.test_case "agreement with statevector" `Quick test_agreement_with_statevector;
          Alcotest.test_case "48-qubit hidden shift (E10)" `Quick test_wide_hidden_shift;
          Alcotest.test_case "solve_clifford rejects" `Quick test_solve_clifford_rejects;
          prop_clifford_sampling_consistency ] );
      ( "sampler",
        [ prop_sampler_support;
          Alcotest.test_case "draws uniform on the support" `Quick test_sample_uniform;
          Alcotest.test_case "width" `Quick test_sampler_width ] ) ]
