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
  (* at the widest runs_statistics width, merge and equality work
     between histograms filled in different orders over the same
     outcome space *)
  let n = Noise.statistics_max_qubits in
  let fill c = List.iter (fun (x, k) -> Noise.counts_add c x k) in
  let content = [ (0, 3); (7, 2); ((1 lsl n) - 1, 5) ] in
  let d = Noise.counts_make n and s = Noise.counts_make n in
  fill d content;
  fill s (List.rev content);
  Alcotest.(check int) "size" (1 lsl n) (Noise.counts_size d);
  Alcotest.(check bool) "equal whatever the fill order" true (Noise.counts_equal d s);
  Alcotest.(check bool) "equal is symmetric" true (Noise.counts_equal s d);
  (* merge d2 <- s *)
  let d2 = Noise.counts_make n in
  fill d2 [ (7, 1) ];
  let m = Noise.counts_merge d2 s in
  Alcotest.(check int) "merged count" 3 (Noise.count m 7);
  Alcotest.(check int) "merged tail" 5 (Noise.count m ((1 lsl n) - 1));
  Alcotest.(check int) "merged total" 11 (Noise.total_counts m);
  (* merge s2 <- d *)
  let s2 = Noise.counts_make n in
  fill s2 [ (0, 1) ];
  let m2 = Noise.counts_merge s2 d in
  Alcotest.(check int) "merged count" 4 (Noise.count m2 0);
  Alcotest.(check int) "merged total" 11 (Noise.total_counts m2);
  Alcotest.(check (list (pair int int)))
    "ascending alist whatever the fill order"
    (Noise.counts_to_alist d) (Noise.counts_to_alist s);
  (* different outcome-space sizes never compare equal *)
  let wider = Noise.counts_make (n + 1) in
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
      Noise.runs_statistics Noise.ibm_qx2017 (wide (Noise.statistics_max_qubits + 1)) ~shots:1 ~runs:1);
  (match (Backend.noisy Noise.ibm_qx2017).Backend.run (wide 63) with
  | _ -> Alcotest.fail "noisy backend accepted 63 qubits"
  | exception Backend.Unsupported msg ->
      Alcotest.(check bool) "backend refusal names noisy" true
        (Helpers.contains ~needle:"noisy: 63 qubits" msg));
  (* 62 qubits is the widest accepted *)
  let counts = Noise.run_shots ~seed:4 Noise.ibm_qx2017 (wide 62) ~shots:64 in
  Alcotest.(check int) "62 qubits run" 64 (Noise.total_counts counts)

(* --- the gate-by-gate path: sparse, then dense past the budget --- *)

(* A random circuit over every [Gate.t] constructor ([n >= 4]). *)
let random_any st n len =
  let q () = Random.State.int st n in
  let rec distinct k acc =
    if List.length acc = k then acc
    else
      let x = q () in
      distinct k (if List.mem x acc then acc else x :: acc)
  in
  Circuit.of_gates n
    (List.init len (fun _ ->
         match Random.State.int st 17 with
         | 0 -> Gate.X (q ())
         | 1 -> Gate.Y (q ())
         | 2 -> Gate.Z (q ())
         | 3 | 4 -> Gate.H (q ())
         | 5 -> Gate.S (q ())
         | 6 -> Gate.Sdg (q ())
         | 7 -> Gate.T (q ())
         | 8 -> Gate.Tdg (q ())
         | 9 -> Gate.Rz (Random.State.float st 6.2 -. 3.1, q ())
         | 10 | 11 | 12 -> (
             match distinct 2 [] with
             | [ a; b ] -> (
                 match Random.State.int st 3 with
                 | 0 -> Gate.Cnot (a, b)
                 | 1 -> Gate.Cz (a, b)
                 | _ -> Gate.Swap (a, b))
             | _ -> assert false)
         | 13 -> (
             match distinct 3 [] with [ a; b; c ] -> Gate.Ccx (a, b, c) | _ -> assert false)
         | 14 -> (
             match distinct 3 [] with [ a; b; c ] -> Gate.Ccz (a, b, c) | _ -> assert false)
         | 15 -> (
             match distinct 4 [] with t :: cs -> Gate.Mcx (cs, t) | [] -> assert false)
         | _ -> Gate.Mcz (distinct (1 + Random.State.int st 4) [])))

(* [c] with each [(i, e)] of [errors] inserted right after gate [i]. *)
let with_errors c errors =
  Circuit.of_gates (Circuit.num_qubits c)
    (List.concat
       (List.mapi
          (fun i g -> g :: List.filter_map (fun (j, e) -> if j = i then Some e else None) errors)
          (Array.to_list (Circuit.to_array c))))

let prop_sparse_matches_dense =
  Helpers.prop "sparse = dense, every gate, fixed errors" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Helpers.rng seed in
      let n = 4 + Random.State.int st 8 in
      let c = random_any st n (1 + Random.State.int st 60) in
      let errors =
        List.init (Random.State.int st 5) (fun _ ->
            ( Random.State.int st (Circuit.num_gates c),
              Noise.random_pauli st (Random.State.int st n) ))
      in
      let noisy = with_errors c errors in
      let sp = Sparse.init n and gbg = Statevector.init n in
      Circuit.iter
        (fun g ->
          Sparse.apply sp g;
          Statevector.apply gbg g)
        noisy;
      (* to 1e-9 against the planned dense run; bit for bit in every
         probability and reduction against dense gate by gate *)
      let planned = Statevector.run noisy in
      let dense = Sparse.to_statevector sp in
      let close = ref true and exact = ref true in
      for x = 0 to Statevector.size planned - 1 do
        let a = Statevector.amplitude dense x and b = Statevector.amplitude planned x in
        if Float.abs (a.re -. b.re) > 1e-9 || Float.abs (a.im -. b.im) > 1e-9 then close := false;
        if Statevector.prob dense x <> Statevector.prob gbg x then exact := false
      done;
      let reductions =
        List.for_all
          (fun q -> Sparse.prob_of_qubit sp q = Statevector.prob_of_qubit gbg q)
          (List.init n Fun.id)
        && Sparse.most_likely sp = Statevector.most_likely gbg
        && List.for_all
             (fun k ->
               Sparse.sample (Helpers.rng k) sp = Statevector.sample (Helpers.rng k) gbg)
             [ 1; 2; 3; 4; 5 ]
      in
      !close && !exact && reductions)

(* Shots of [c] on the default budget and on the dense oracle, seed by
   seed: identical outcomes and error counts. *)
let check_same_shots ?(params = Noise.ibm_qx2017) what c ~seed ~shots =
  for shot = 0 to shots - 1 do
    let st () = Noise.shot_state ~seed shot in
    let sparse = Noise.run_shot_raw (st ()) params c in
    let dense = Noise.run_shot_raw ~budget:0 (st ()) params c in
    let unbounded = Noise.run_shot_raw ~budget:max_int (st ()) params c in
    if sparse <> dense || unbounded <> dense then
      Alcotest.failf "%s: shot %d differs from the dense oracle" what shot
  done

(* Nine qubits, budget 2^9 / 16 = 32: a permutation-with-phases prefix,
   then H on every qubit spreads the support to 512 in mid-shot. *)
let crossing =
  let n = 9 in
  Circuit.of_gates n
    ([ Gate.X 0; Gate.T 0; Gate.Cnot (0, 3); Gate.Ccx (0, 3, 5); Gate.Tdg 5; Gate.H 2 ]
    @ List.init n (fun q -> Gate.H q)
    @ [ Gate.T 1; Gate.Ccx (1, 2, 4); Gate.S 4; Gate.Cnot (4, 8); Gate.H 8; Gate.Tdg 3 ])

let events_of f =
  let m = Obs.Memory.create () in
  Obs.reset ();
  Obs.set_sink (Some (Obs.Memory.sink m));
  Fun.protect ~finally:(fun () -> Obs.set_sink None) f;
  Obs.Memory.events m

let test_sparse_crosses_budget () =
  Alcotest.(check int) "budget of 9 qubits" 32 (Sparse.budget 9);
  Alcotest.(check bool) "noiseless run passes the budget" true
    (Sparse.run ~budget:(Sparse.budget 9) crossing = None);
  check_same_shots "crossing" crossing ~seed:17 ~shots:200;
  let totals =
    Obs.Summary.counter_totals
      (events_of (fun () ->
           ignore (Noise.run_shots ~seed:17 ~jobs:1 Noise.ibm_qx2017 crossing ~shots:50)))
  in
  Alcotest.(check (option int)) "every shot went dense" (Some 50)
    (List.assoc_opt "qc.noise.densified_shots" totals);
  Alcotest.(check (option int)) "no shot stayed sparse" None
    (List.assoc_opt "qc.noise.sparse_shots" totals)

let test_sparse_damping () =
  (* gamma > 0: damping draws read prob_of_qubit, so the sparse sums must
     equal the dense ones; 15 qubits take the blocked dense reduction *)
  let params = { Noise.ibm_qx2017 with Noise.gamma = 0.05 } in
  let st = Helpers.rng 23 in
  for k = 1 to 6 do
    let c = random_any st 8 60 in
    check_same_shots ~params (Printf.sprintf "8 qubits, circuit %d" k) c ~seed:k ~shots:40
  done;
  let wide =
    Circuit.of_gates 15
      ([ Gate.H 0; Gate.H 14; Gate.X 7; Gate.T 14; Gate.Ccx (0, 14, 3); Gate.H 9 ]
      @ List.init 15 (fun q -> Gate.T q)
      @ [ Gate.Cnot (3, 12); Gate.Tdg 12; Gate.H 3; Gate.Swap (9, 1) ])
  in
  Alcotest.(check bool) "wider than the sequential reduction" true
    (1 lsl 15 > Statevector.par_threshold);
  check_same_shots ~params "15 qubits" wide ~seed:5 ~shots:4

(* Circuits the service and the corpus run: the spec pool as the
   service compiles it, and the corpus entries lowered the way the
   corpus lowers them. *)
let pool_circuits =
  lazy
    (Array.to_list
       (Array.mapi
          (fun i spec ->
            let req =
              { Serve.tenant = "t"; spec; pipeline = None; backend = "noisy"; shots = 1;
                deadline_us = 0. }
            in
            (Printf.sprintf "spec_pool.(%d)" i, fst (Serve.compile_request ~level:0 req)))
          (Lazy.force Serve.Load.spec_pool)))

let corpus_circuits =
  lazy
    (List.map
       (fun e ->
         let raw, _ = Corpus.build e in
         (Corpus.entry_name e, Opt.simplify (Tpar.optimize (fst (Clifford_t.compile raw)))))
       Corpus.default_manifest)

(* The dense references below cost 2^n memory and time; past 21 qubits
   (corpus cmp:8 at 25 qubits: 29 s and 512 MB a dense run) they are
   left out of the suite. *)
let dense_affordable (_, c) = Circuit.num_qubits c <= 21

let test_sparse_vs_oracle () =
  (* non-Clifford circuits: a chi-square of run_shots against the dense
     oracle (other seeds) where the oracle's shots are cheap (2^n × gates
     ≤ 2^19, about 1 ms each); the others compare shot by shot, up to 17
     qubits (a dense 17-qubit shot costs about 200 ms) *)
  let cases =
    List.filter
      (fun (_, c) -> Circuit.num_qubits c <= 17 && not (Stabilizer.is_clifford_circuit c))
      (Lazy.force corpus_circuits @ Lazy.force pool_circuits)
  in
  List.iter
    (fun (name, c) ->
      let n = Circuit.num_qubits c in
      if (1 lsl n) * Circuit.num_gates c > 1 lsl 19 then
        check_same_shots name c ~seed:9 ~shots:3
      else begin
        let shots = 200 and seeds = 2 in
        let fast = Array.make (1 lsl n) 0 and oracle = Array.make (1 lsl n) 0 in
        for k = 1 to seeds do
          Noise.iter_counts
            (fun x m -> fast.(x) <- fast.(x) + m)
            (Noise.run_shots ~seed:k ~jobs:1 Noise.ibm_qx2017 c ~shots);
          for shot = 0 to shots - 1 do
            let x, _ =
              Noise.run_shot_raw ~budget:0
                (Noise.shot_state ~seed:(1000 + k) shot)
                Noise.ibm_qx2017 c
            in
            oracle.(x) <- oracle.(x) + 1
          done
        done;
        let stat, df = chi_square fast oracle in
        let bound = float_of_int df +. (4. *. sqrt (2. *. float_of_int df)) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: chi-square %.1f < %.1f (df %d)" name stat bound df)
          true (stat < bound)
      end)
    cases

let test_sparse_backend_equivalence () =
  (* sparse-first Backend.statevector = the dense plan path, outcome and
     deterministic flag, on every corpus entry and spec-pool spec *)
  List.iter
    (fun (name, c) ->
      let sv = Statevector.run c in
      let x = Statevector.most_likely sv in
      let dense = (x, Statevector.is_basis_state ~eps:1e-6 sv x) in
      match Backend.statevector.Backend.run c with
      | Backend.Measured { outcome; deterministic } ->
          Alcotest.(check (pair int bool)) name dense (outcome, deterministic)
      | _ -> Alcotest.failf "%s: expected a measurement" name)
    (List.filter dense_affordable (Lazy.force corpus_circuits @ Lazy.force pool_circuits))

let test_sparse_telemetry () =
  let _, addeq = List.nth (Lazy.force pool_circuits) 11 in
  Alcotest.(check int) "addeq:3 oracle width" 17 (Circuit.num_qubits addeq);
  let totals =
    Obs.Summary.counter_totals
      (events_of (fun () ->
           ignore (Noise.run_shots ~seed:2 ~jobs:1 Noise.ibm_qx2017 addeq ~shots:24)))
  in
  Alcotest.(check (option int)) "sparse shots" (Some 24)
    (List.assoc_opt "qc.noise.sparse_shots" totals);
  Alcotest.(check (option int)) "no densified shot" None
    (List.assoc_opt "qc.noise.densified_shots" totals);
  (* the frame path counts neither *)
  let totals =
    Obs.Summary.counter_totals
      (events_of (fun () ->
           ignore (Noise.run_shots ~seed:2 ~jobs:1 Noise.ibm_qx2017 bell ~shots:24)))
  in
  Alcotest.(check bool) "frame shots uncounted" true
    (not
       (List.mem_assoc "qc.noise.sparse_shots" totals
       || List.mem_assoc "qc.noise.densified_shots" totals));
  (* the backend span names the representation that ran *)
  let support c =
    List.filter_map
      (function
        | Obs.Span_end { name = "qc.backend.statevector"; attrs; _ } ->
            List.assoc_opt "support" attrs
        | _ -> None)
      (events_of (fun () -> ignore (Backend.statevector.Backend.run c)))
  in
  (match support addeq with
  | [ Obs.Int k ] ->
      Alcotest.(check bool) "sparse support recorded" true (k >= 1 && k <= Sparse.budget 17)
  | _ -> Alcotest.fail "addeq:3: expected one integer support attribute");
  match support (Circuit.of_gates 6 (List.init 6 (fun q -> Gate.H q))) with
  | [ Obs.Str "dense" ] -> ()
  | _ -> Alcotest.fail "uniform superposition: expected support = dense"

(* 32 amplitudes of unequal, non-dyadic magnitude spread over the
   blocks of a 15-qubit state: their sums depend on the order. *)
let spread =
  Circuit.of_gates 15
    (List.concat_map
       (fun q -> [ Gate.H q; Gate.Rz (0.3 +. (0.41 *. float_of_int q), q); Gate.H q ])
       [ 0; 3; 9; 12; 14 ])

let test_sparse_sampler () =
  (* without gate noise, a non-Clifford circuit whose state stays sparse
     samples from a table over its support: the values of the dense
     table at those indices (its sums only add exact zeros elsewhere),
     and fixed-seed histograms equal to the dense sampler's *)
  let params = { Noise.noiseless with Noise.readout = 0.05 } in
  let sparse_cases = ref 0 in
  List.iter
    (fun (name, c) ->
      let n = Circuit.num_qubits c in
      match Sparse.run ~budget:(Sparse.budget n) c with
      | None -> ()
      | Some s ->
          incr sparse_cases;
          let sp = Sparse.sampler s in
          let at = Statevector.cdf_at in
          let unfused = Statevector.sampler (Statevector.run ~fuse:false c) in
          Array.iteri
            (fun k x ->
              if sp.Sparse.cdf.(k) <> at unfused x then
                Alcotest.failf "%s: table entry at %d differs from the dense one" name x)
            sp.Sparse.keys;
          let dense = Statevector.sampler (Statevector.run c) in
          let shots = 256 and seed = 4 in
          let expect = Noise.counts_make n in
          for shot = 0 to shots - 1 do
            let st = Noise.shot_state ~seed shot in
            Noise.counts_add expect
              (Noise.readout st params n (Statevector.sample_with dense st))
              1
          done;
          Alcotest.(check bool) (name ^ ": histogram = dense sampler's") true
            (Noise.counts_equal expect (Noise.run_shots ~seed ~jobs:1 params c ~shots)))
    (("spread", spread)
    :: List.filter
         (fun (_, c) -> Circuit.num_qubits c <= 17 && not (Stabilizer.is_clifford_circuit c))
         (Lazy.force corpus_circuits @ Lazy.force pool_circuits));
  Alcotest.(check bool) "some circuits stay sparse" true (!sparse_cases >= 3)

let test_readout_only_clifford () =
  (* gate noise off, readout on: Clifford circuits take the tableau path
     at any width, past the statevector cap too *)
  let s = 0x2_7C41_D05B land ((1 lsl 40) - 1) in
  let c, _ = Core.Hidden_shift.build_compiled (Core.Hidden_shift.Inner_product { n = 20; s }) in
  Alcotest.(check bool) "wider than the statevector cap" true
    (Circuit.num_qubits c > Statevector.max_qubits ());
  let params = { Noise.noiseless with Noise.readout = 0.05 } in
  (match (Backend.noisy ~seed:6 ~shots:2048 params).Backend.run c with
  | Backend.Histogram ((mode, _) :: _) -> Alcotest.(check int) "mode is the shift" s mode
  | _ -> Alcotest.fail "expected a histogram");
  let counts = Noise.run_shots ~seed:6 Noise.noiseless c ~shots:64 in
  Alcotest.(check int) "noiseless: every shot is the shift" 64 (Noise.count counts s)

let test_sparse_width_cap () =
  (* off the frame path the statevector cap binds, sparse or not *)
  let t_circuit = Circuit.of_gates 9 [ Gate.H 0; Gate.T 0; Gate.Cnot (0, 8) ] in
  let clifford = Circuit.of_gates 9 [ Gate.H 0; Gate.S 0; Gate.Cnot (0, 8) ] in
  Unix.putenv "DAUTOQ_SV_MAX_QUBITS" "8";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DAUTOQ_SV_MAX_QUBITS" "")
    (fun () ->
      (match Noise.run_shots ~seed:1 Noise.ibm_qx2017 t_circuit ~shots:4 with
      | _ -> Alcotest.fail "9-qubit T circuit accepted under an 8-qubit cap"
      | exception Statevector.Unsupported msg ->
          Alcotest.(check bool) "refusal names sv.alloc" true
            (Helpers.contains ~needle:"sv.alloc:" msg));
      Alcotest.(check int) "Clifford circuits still run" 4
        (Noise.total_counts (Noise.run_shots ~seed:1 Noise.ibm_qx2017 clifford ~shots:4)))

(* --- Sim: the one path selector --- *)

let test_sim_paths () =
  let check name ok = Alcotest.(check bool) name true ok in
  let t_circ = Circuit.of_gates 2 [ Gate.H 0; Gate.T 0; Gate.Cnot (0, 1) ] in
  let path = Sim.noisy_path in
  check "Clifford, gate noise: frames" (path ~gate_noise:true ~damping:false bell = Sim.Frames);
  check "Clifford, readout only: frames" (path ~gate_noise:false ~damping:false bell = Sim.Frames);
  check "Clifford, damping: gate by gate"
    (path ~gate_noise:false ~damping:true bell = Sim.Gate_by_gate);
  check "T gate, no gate noise: sampled" (path ~gate_noise:false ~damping:false t_circ = Sim.Sampled);
  check "T gate, gate noise: gate by gate"
    (path ~gate_noise:true ~damping:false t_circ = Sim.Gate_by_gate);
  (* the tableau guard: a random branch reads 0, a T gate has no tableau *)
  check "Bell pair on the tableau" (Sim.tableau bell = Some (0, false));
  check "no tableau with a T gate" (Sim.tableau t_circ = None);
  (* the noiseless state is sparse while its support stays small *)
  let basis = Circuit.of_gates 12 [ Gate.X 11 ] in
  let uniform = Circuit.of_gates 12 (List.init 12 (fun q -> Gate.H q)) in
  check "basis state: sparse" (match Sim.state basis with Sim.Sparse _ -> true | _ -> false);
  check "uniform state: dense" (match Sim.state uniform with Sim.Dense _ -> true | _ -> false);
  check "basis state reads out certain" (Sim.readout (Sim.state basis) = (1 lsl 11, true));
  check "uniform state reads out uncertain" (Sim.readout (Sim.state uniform) = (0, false))

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
          Alcotest.test_case "width limits" `Quick test_width_limits ] );
      (* suite names stay at most five characters: Alcotest cuts long test
         names to a width that shrinks as the longest suite name grows *)
      ( "gates",
        [ prop_sparse_matches_dense;
          Alcotest.test_case "support crosses the budget" `Quick test_sparse_crosses_budget;
          Alcotest.test_case "amplitude damping" `Quick test_sparse_damping;
          Alcotest.test_case "run_shots vs dense oracle" `Quick test_sparse_vs_oracle;
          Alcotest.test_case "backend equivalence gate" `Quick test_sparse_backend_equivalence;
          Alcotest.test_case "telemetry" `Quick test_sparse_telemetry;
          Alcotest.test_case "readout-only sparse sampler" `Quick test_sparse_sampler;
          Alcotest.test_case "readout-only Clifford" `Quick test_readout_only_clifford;
          Alcotest.test_case "width cap" `Quick test_sparse_width_cap ] );
      ("sim", [ Alcotest.test_case "path choice" `Quick test_sim_paths ]) ]
