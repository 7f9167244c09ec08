open Qc

let bell = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ]

let test_noiseless_params () =
  (* with the zero channel, a basis-state circuit gives one outcome *)
  let c = Circuit.of_gates 2 [ Gate.X 1 ] in
  let counts = Noise.run_shots Noise.noiseless c ~shots:200 in
  Alcotest.(check int) "all shots on |10>" 200 (Noise.count counts 0b10);
  Alcotest.(check int) "nothing elsewhere" 0 (Noise.count counts 0)

let test_noiseless_bell () =
  let counts = Noise.run_shots Noise.noiseless bell ~shots:2000 in
  Alcotest.(check int) "no |01>" 0 (Noise.count counts 1);
  Alcotest.(check int) "no |10>" 0 (Noise.count counts 2);
  let f = Float.of_int (Noise.count counts 0) /. 2000. in
  Alcotest.(check bool) "balanced" true (f > 0.43 && f < 0.57)

let test_shots_conserved () =
  let counts = Noise.run_shots Noise.ibm_qx2017 bell ~shots:512 in
  Alcotest.(check int) "histogram sums to shots" 512 (Noise.total_counts counts)

let test_determinism_by_seed () =
  let a = Noise.run_shots ~seed:11 Noise.ibm_qx2017 bell ~shots:256 in
  let b = Noise.run_shots ~seed:11 Noise.ibm_qx2017 bell ~shots:256 in
  let c = Noise.run_shots ~seed:12 Noise.ibm_qx2017 bell ~shots:256 in
  Alcotest.(check bool) "same seed, same histogram" true (Noise.counts_equal a b);
  Alcotest.(check bool) "different seed differs" true (not (Noise.counts_equal a c))

let test_noise_degrades () =
  (* readout-only noise flips some outcomes of a deterministic circuit *)
  let c = Circuit.of_gates 3 [ Gate.X 0; Gate.X 1; Gate.X 2 ] in
  let params = { Noise.noiseless with Noise.readout = 0.2 } in
  let counts = Noise.run_shots params c ~shots:2000 in
  let correct = Float.of_int (Noise.count counts 7) /. 2000. in
  (* expect (1-0.2)^3 = 0.512 *)
  Alcotest.(check bool) "readout errors visible" true (correct > 0.42 && correct < 0.6)

let test_gate_noise_scales_with_depth () =
  (* more gates, lower success: compare 2 vs 20 identity-equivalent X pairs *)
  let params = { Noise.noiseless with Noise.p1 = 0.02 } in
  let mk reps = Circuit.of_gates 1 (List.concat (List.init reps (fun _ -> [ Gate.X 0; Gate.X 0 ]))) in
  let p_of reps =
    let counts = Noise.run_shots ~seed:5 params (mk reps) ~shots:3000 in
    Float.of_int (Noise.count counts 0) /. 3000.
  in
  Alcotest.(check bool) "deeper circuit is noisier" true (p_of 20 < p_of 2)

let test_success_probability () =
  let counts = Noise.counts_of_array [| 10; 70; 20; 0 |] in
  Alcotest.(check (float 1e-12)) "success prob" 0.7 (Noise.success_probability counts 1)

let test_runs_statistics_shape () =
  let mean, std = Noise.runs_statistics Noise.ibm_qx2017 bell ~shots:256 ~runs:3 in
  Alcotest.(check int) "mean size" 4 (Array.length mean);
  Alcotest.(check int) "std size" 4 (Array.length std);
  let total = Array.fold_left ( +. ) 0. mean in
  Alcotest.(check (float 1e-9)) "means sum to 1" 1. total;
  Array.iter (fun s -> Alcotest.(check bool) "std nonnegative" true (s >= 0.)) std

let test_amplitude_damping_rate () =
  (* one X gate with damping γ: P(decay back to 0) ≈ γ *)
  let gamma = 0.3 in
  let params = { Noise.noiseless with Noise.gamma } in
  let c = Circuit.of_gates 1 [ Gate.X 0 ] in
  let counts = Noise.run_shots ~seed:2 params c ~shots:5000 in
  let p0 = Float.of_int (Noise.count counts 0) /. 5000. in
  Alcotest.(check bool) "decay rate ~ gamma" true (Float.abs (p0 -. gamma) < 0.03)

let test_amplitude_damping_accumulates () =
  (* deeper circuits relax more: |1> through k waiting gates *)
  let params = { Noise.noiseless with Noise.gamma = 0.05 } in
  let mk k =
    Circuit.of_gates 2 (Gate.X 0 :: List.concat (List.init k (fun _ -> [ Gate.Z 0; Gate.Z 0 ])))
  in
  let survival k =
    let counts = Noise.run_shots ~seed:3 params (mk k) ~shots:3000 in
    Float.of_int (Noise.count counts 1) /. 3000.
  in
  Alcotest.(check bool) "more depth, more decay" true (survival 20 < survival 2)

let test_amplitude_damping_fixes_ground_state () =
  (* |0> is a fixed point of the T1 channel *)
  let params = { Noise.noiseless with Noise.gamma = 0.5 } in
  let c = Circuit.of_gates 1 [ Gate.Z 0; Gate.Z 0 ] in
  let counts = Noise.run_shots params c ~shots:500 in
  Alcotest.(check int) "ground state untouched" 500 (Noise.count counts 0)

let test_damping_preserves_norm () =
  let st = Helpers.rng 9 in
  for _ = 1 to 30 do
    let s = Statevector.run (Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.T 1; Gate.H 2 ]) in
    let q = Random.State.int st 3 in
    let gamma = 0.2 +. Random.State.float st 0.5 in
    let p_jump = gamma *. Statevector.prob_of_qubit s q in
    let jump = Random.State.float st 1. < p_jump in
    Statevector.amplitude_damp s q ~gamma ~jump;
    Alcotest.(check (float 1e-9)) "norm 1" 1. (Statevector.norm2 s)
  done

let test_counts_repr_boundary () =
  (* exactly at sparse_threshold qubits the histogram is still dense;
     merge and equality must work across the Dense/Sparse divide for
     the same outcome space *)
  let n = Noise.sparse_threshold in
  let dense = Noise.counts_make n in
  Alcotest.(check bool) "threshold width is dense" true
    (match dense with Noise.Dense _ -> true | Noise.Sparse _ -> false);
  Alcotest.(check bool) "one more qubit is sparse" true
    (match Noise.counts_make (n + 1) with
    | Noise.Sparse _ -> true
    | Noise.Dense _ -> false);
  (* a sparse histogram over the same 2^n outcome space *)
  let sparse () = Noise.Sparse { size = 1 lsl n; tbl = Hashtbl.create 8 } in
  let fill c = List.iter (fun (x, k) -> Noise.counts_add c x k) in
  let content = [ (0, 3); (7, 2); ((1 lsl n) - 1, 5) ] in
  let d = dense and s = sparse () in
  fill d content;
  fill s content;
  Alcotest.(check bool) "equal across representations" true (Noise.counts_equal d s);
  Alcotest.(check bool) "equal is symmetric" true (Noise.counts_equal s d);
  (* merge dense <- sparse *)
  let d2 = Noise.counts_make n in
  fill d2 [ (7, 1) ];
  let m = Noise.counts_merge d2 s in
  Alcotest.(check int) "merged count" 3 (Noise.count m 7);
  Alcotest.(check int) "merged tail" 5 (Noise.count m ((1 lsl n) - 1));
  Alcotest.(check int) "merged total" 11 (Noise.total_counts m);
  (* merge sparse <- dense *)
  let s2 = sparse () in
  fill s2 [ (0, 1) ];
  let m2 = Noise.counts_merge s2 d in
  Alcotest.(check int) "merged count" 4 (Noise.count m2 0);
  Alcotest.(check int) "merged total" 11 (Noise.total_counts m2);
  (* alists agree regardless of representation *)
  Alcotest.(check (list (pair int int)))
    "ascending alist across representations"
    (Noise.counts_to_alist d) (Noise.counts_to_alist s);
  (* different outcome-space sizes never compare equal *)
  let wider = Noise.Sparse { size = 1 lsl (n + 1); tbl = Hashtbl.create 8 } in
  fill wider content;
  Alcotest.(check bool) "size mismatch differs" false (Noise.counts_equal d wider)

let test_e2_shape () =
  (* the Fig. 6 shape: correct shift dominates but is well below 1 *)
  let inst = Core.Hidden_shift.Inner_product { n = 2; s = 1 } in
  let mean, _ = Core.Hidden_shift.run_noisy ~seed:3 Noise.ibm_qx2017 inst ~shots:1024 ~runs:3 in
  let best = ref 0 in
  Array.iteri (fun x m -> if m > mean.(!best) then best := x) mean;
  Alcotest.(check int) "mode is the planted shift" 1 !best;
  Alcotest.(check bool) "success in the paper's band" true (mean.(1) > 0.45 && mean.(1) < 0.85)

(* --- the Pauli-frame path (Clifford circuits, gamma = 0) --- *)

(* A random circuit over every gate the frame path accepts. *)
let random_clifford st n len =
  let q () = Random.State.int st n in
  let pair () =
    let a = q () in
    (a, (a + 1 + Random.State.int st (n - 1)) mod n)
  in
  Circuit.of_gates n
    (List.init len (fun _ ->
         match Random.State.int st 12 with
         | 0 | 1 -> Gate.H (q ())
         | 2 -> Gate.S (q ())
         | 3 -> Gate.Sdg (q ())
         | 4 -> Gate.X (q ())
         | 5 -> Gate.Y (q ())
         | 6 -> Gate.Z (q ())
         | 7 -> Gate.Mcz [ q () ]
         | k -> (
             let a, b = pair () in
             match k with
             | 8 -> Gate.Cnot (a, b)
             | 9 -> Gate.Cz (a, b)
             | 10 -> Gate.Swap (a, b)
             | _ -> Gate.Mcz [ a; b ])))

(* The outcome distribution the frame path draws from: the sampler's
   affine support, uniform, shifted by the frame's X part. *)
let frame_distribution n (smp : Stabilizer.sampler) fx =
  let k = Array.length smp.Stabilizer.basis in
  let p = Array.make (1 lsl n) 0. in
  for subset = 0 to (1 lsl k) - 1 do
    let x = ref (smp.Stabilizer.x0 lxor fx) in
    Array.iteri (fun i b -> if (subset lsr i) land 1 = 1 then x := !x lxor b) smp.basis;
    p.(!x) <- p.(!x) +. (1. /. float_of_int (1 lsl k))
  done;
  p

let prop_frame_matches_inserted_errors =
  Helpers.prop "frame path = statevector with the errors inserted" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Helpers.rng seed in
      let n = 2 + Random.State.int st 5 in
      let c = random_clifford st n (1 + Random.State.int st 30) in
      let gates = Circuit.to_array c in
      let smp = Stabilizer.sampler (Stabilizer.run c) in
      let agrees errors =
        (* the oracle: every error as a gate right after its gate *)
        let noisy =
          Circuit.of_gates n
            (List.concat
               (List.mapi
                  (fun i g ->
                    g :: List.filter_map (fun (j, e) -> if j = i then Some e else None) errors)
                  (Array.to_list gates)))
        in
        let expected = Statevector.probabilities (Statevector.run noisy) in
        let got = frame_distribution n smp (fst (Noise.frame_after c errors)) in
        let ok = ref true in
        Array.iteri (fun x p -> if Float.abs (p -. got.(x)) > 1e-9 then ok := false) expected;
        !ok
      in
      (* every single error, then a random list of several *)
      let singles =
        List.concat_map
          (fun i ->
            List.concat_map
              (fun q -> [ [ (i, Gate.X q) ]; [ (i, Gate.Y q) ]; [ (i, Gate.Z q) ] ])
              (List.init n Fun.id))
          (List.init (Array.length gates) Fun.id)
      in
      let several =
        List.init (2 + Random.State.int st 4) (fun _ ->
            let i = Random.State.int st (Array.length gates) in
            (i, Noise.random_pauli st (Random.State.int st n)))
      in
      agrees [] && List.for_all agrees singles && agrees several)

let test_conjugation_rules () =
  (* for every accepted gate g on 3 qubits and every Pauli P (signs
     dropped): P then g equals g then the frame's P', up to phase *)
  let paulis_of (x, z) =
    List.filter_map
      (fun q ->
        match ((x lsr q) land 1, (z lsr q) land 1) with
        | 1, 1 -> Some (Gate.Y q)
        | 1, 0 -> Some (Gate.X q)
        | 0, 1 -> Some (Gate.Z q)
        | _ -> None)
      [ 0; 1; 2 ]
  in
  let gates =
    List.concat_map
      (fun a ->
        [ Gate.H a; Gate.S a; Gate.Sdg a; Gate.X a; Gate.Y a; Gate.Z a; Gate.Mcz [ a ] ]
        @ List.concat_map
            (fun b ->
              if a = b then []
              else [ Gate.Cnot (a, b); Gate.Cz (a, b); Gate.Swap (a, b); Gate.Mcz [ a; b ] ])
            [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  List.iter
    (fun g ->
      for x = 0 to 7 do
        for z = 0 to 7 do
          let p = paulis_of (x, z) in
          (* the frame after g of P inserted ahead of g, behind an X that
             leaves the frame alone *)
          let c = Circuit.of_gates 3 [ Gate.X 0; g ] in
          let p' = paulis_of (Noise.frame_after c (List.map (fun e -> (0, e)) p)) in
          let lhs = Circuit.of_gates 3 ((Gate.X 0 :: p) @ [ g ])
          and rhs = Circuit.of_gates 3 ((Gate.X 0 :: g :: p')) in
          if not (Helpers.same_unitary_phase lhs rhs) then
            Alcotest.failf "%s: frame (x=%d, z=%d) pushed wrong" (Gate.name g) x z
        done
      done)
    gates

(* Clifford members of the corpus families, lowered the way the corpus
   compiles them. *)
let corpus_clifford () =
  List.filter_map
    (fun spec ->
      let raw, _ = Corpus.build (Corpus.parse_entry spec) in
      let c = Opt.simplify (Tpar.optimize (fst (Clifford_t.compile raw))) in
      if Stabilizer.is_clifford_circuit c then Some (spec, c) else None)
    [ "dj:4"; "dj:5:3"; "bv:5:19"; "bv:6:7"; "ghz:6"; "ghz:8" ]

(* Two-sample chi-square statistic of equal-size histograms [a] and [b],
   with the outcomes seen fewer than 10 times in all pooled into one bin;
   returns (statistic, degrees of freedom). *)
let chi_square a b =
  let stat = ref 0. and bins = ref 0 and rest_a = ref 0 and rest_b = ref 0 in
  Array.iteri
    (fun x ka ->
      let kb = b.(x) in
      if ka + kb >= 10 then begin
        incr bins;
        stat := !stat +. (float_of_int ((ka - kb) * (ka - kb)) /. float_of_int (ka + kb))
      end
      else begin
        rest_a := !rest_a + ka;
        rest_b := !rest_b + kb
      end)
    a;
  if !rest_a + !rest_b > 0 then begin
    incr bins;
    let d = !rest_a - !rest_b in
    stat := !stat +. (float_of_int (d * d) /. float_of_int (!rest_a + !rest_b))
  end;
  (!stat, max 1 (!bins - 1))

let test_frame_vs_gate_by_gate () =
  (* one histogram from the frame path and one from [run_shot_raw], each
     pooled over 8 seeds of 1000 shots, must be homogeneous: chi-square
     below df + 4 sqrt(2 df), about the 0.1% tail *)
  let cases = corpus_clifford () in
  Alcotest.(check int) "every case is Clifford" 6 (List.length cases);
  List.iter
    (fun (spec, c) ->
      let n = Circuit.num_qubits c and shots = 1000 and seeds = 8 in
      let frame = Array.make (1 lsl n) 0 and raw = Array.make (1 lsl n) 0 in
      for k = 1 to seeds do
        Noise.iter_counts
          (fun x m -> frame.(x) <- frame.(x) + m)
          (Noise.run_shots ~seed:k ~jobs:1 Noise.ibm_qx2017 c ~shots);
        for shot = 0 to shots - 1 do
          let x, _ =
            Noise.run_shot_raw (Noise.shot_state ~seed:(1000 + k) shot) Noise.ibm_qx2017 c
          in
          raw.(x) <- raw.(x) + 1
        done
      done;
      let stat, df = chi_square frame raw in
      let bound = float_of_int df +. (4. *. sqrt (2. *. float_of_int df)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: chi-square %.1f < %.1f (df %d)" spec stat bound df)
        true (stat < bound))
    cases

let test_frame_counters () =
  (* on the frame path the counters mean what they mean gate by gate:
     shots, and the errors of the same per-shot draws as [run_shot_raw] *)
  let c, _ = Core.Hidden_shift.build_compiled (Core.Hidden_shift.Inner_product { n = 3; s = 5 }) in
  Alcotest.(check bool) "instance is Clifford" true (Stabilizer.is_clifford_circuit c);
  let seed = 21 and shots = 400 in
  let m = Obs.Memory.create () in
  Obs.set_sink (Some (Obs.Memory.sink m));
  let (_ : Noise.counts) = Noise.run_shots ~seed ~jobs:1 Noise.ibm_qx2017 c ~shots in
  Obs.set_sink None;
  let events = Obs.Memory.events m in
  let totals = Obs.Summary.counter_totals events in
  let raw_errors = ref 0 in
  for shot = 0 to shots - 1 do
    let _, e = Noise.run_shot_raw (Noise.shot_state ~seed shot) Noise.ibm_qx2017 c in
    raw_errors := !raw_errors + e
  done;
  Alcotest.(check (option int)) "shots" (Some shots) (List.assoc_opt "qc.noise.shots" totals);
  Alcotest.(check bool) "some errors drawn" true (!raw_errors > 0);
  Alcotest.(check (option int)) "errors injected = gate-by-gate draws" (Some !raw_errors)
    (List.assoc_opt "qc.noise.errors_injected" totals);
  let per_shot = Obs.Summary.sample_values events "qc.noise.errors_per_shot" in
  Alcotest.(check int) "one errors_per_shot sample a shot" shots (List.length per_shot);
  Alcotest.(check int) "samples sum to the errors injected" !raw_errors
    (int_of_float (List.fold_left ( +. ) 0. per_shot))

let test_frame_wide_inner_product () =
  (* 40 qubits: past the statevector cap, on the Pauli-frame path *)
  Alcotest.(check bool) "wider than the statevector cap" true (40 > Statevector.max_qubits ());
  let s = 0x5_3A1C_9E07 land ((1 lsl 40) - 1) in
  let c, _ = Core.Hidden_shift.build_compiled (Core.Hidden_shift.Inner_product { n = 20; s }) in
  Alcotest.(check int) "40 qubits" 40 (Circuit.num_qubits c);
  match (Backend.noisy ~seed:3 ~shots:4096 Noise.ibm_qx2017).Backend.run c with
  | Backend.Histogram ((mode, _) :: _) -> Alcotest.(check int) "mode is the shift" s mode
  | _ -> Alcotest.fail "expected a histogram"

let test_width_limits () =
  let wide n = Circuit.of_gates n [ Gate.H 0; Gate.Cnot (0, n - 1) ] in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (what ^ " names noise.width") true
          (Helpers.contains ~needle:"noise.width:" msg)
  in
  refused "run_shots past 62 qubits" (fun () ->
      Noise.run_shots Noise.ibm_qx2017 (wide 63) ~shots:1);
  refused "runs_statistics past the sparse threshold" (fun () ->
      Noise.runs_statistics Noise.ibm_qx2017 (wide (Noise.sparse_threshold + 1)) ~shots:1 ~runs:1);
  (match (Backend.noisy Noise.ibm_qx2017).Backend.run (wide 63) with
  | _ -> Alcotest.fail "noisy backend accepted 63 qubits"
  | exception Backend.Unsupported msg ->
      Alcotest.(check bool) "backend refusal names noisy" true
        (Helpers.contains ~needle:"noisy: 63 qubits" msg));
  (* 62 qubits is the widest accepted *)
  let counts = Noise.run_shots ~seed:4 Noise.ibm_qx2017 (wide 62) ~shots:64 in
  Alcotest.(check int) "62 qubits run" 64 (Noise.total_counts counts)

let () =
  Alcotest.run "noise"
    [ ( "noise",
        [ Alcotest.test_case "noiseless params" `Quick test_noiseless_params;
          Alcotest.test_case "noiseless bell" `Quick test_noiseless_bell;
          Alcotest.test_case "shots conserved" `Quick test_shots_conserved;
          Alcotest.test_case "seed determinism" `Quick test_determinism_by_seed;
          Alcotest.test_case "readout errors" `Quick test_noise_degrades;
          Alcotest.test_case "noise scales with depth" `Quick test_gate_noise_scales_with_depth;
          Alcotest.test_case "success probability" `Quick test_success_probability;
          Alcotest.test_case "runs statistics" `Quick test_runs_statistics_shape;
          Alcotest.test_case "T1 decay rate" `Quick test_amplitude_damping_rate;
          Alcotest.test_case "T1 accumulates" `Quick test_amplitude_damping_accumulates;
          Alcotest.test_case "T1 fixes ground state" `Quick test_amplitude_damping_fixes_ground_state;
          Alcotest.test_case "damping preserves norm" `Quick test_damping_preserves_norm;
          Alcotest.test_case "counts repr boundary" `Quick test_counts_repr_boundary;
          Alcotest.test_case "Fig. 6 shape" `Quick test_e2_shape ] );
      ( "frame",
        [ Alcotest.test_case "conjugation rules" `Quick test_conjugation_rules;
          prop_frame_matches_inserted_errors;
          Alcotest.test_case "frame vs gate by gate" `Quick test_frame_vs_gate_by_gate;
          Alcotest.test_case "frame counters" `Quick test_frame_counters;
          Alcotest.test_case "40-qubit inner product" `Quick test_frame_wide_inner_product;
          Alcotest.test_case "width limits" `Quick test_width_limits ] ) ]
