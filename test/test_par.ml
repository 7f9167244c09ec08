(* The multicore execution runtime: pool primitives, the determinism
   contract (any jobs count = the ~jobs:1 reference, bit for bit), the
   shared-CDF sampler and the sparse histogram representation. *)

open Qc

(* --- pool primitives --- *)

let with_temp_pool jobs f =
  let p = Par.create jobs in
  Fun.protect ~finally:(fun () -> Par.shutdown p) (fun () -> f p)

let test_parallel_for_covers () =
  with_temp_pool 4 (fun p ->
      let a = Array.make 1000 (-1) in
      Par.parallel_for p ~start:0 ~stop:1000 (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- 2 * i
          done);
      Array.iteri (fun i v -> Alcotest.(check int) "covered" (2 * i) v) a)

let test_parallel_for_chunks () =
  with_temp_pool 3 (fun p ->
      let a = Array.make 100 0 in
      Par.parallel_for p ~chunks:17 ~start:0 ~stop:100 (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- a.(i) + 1
          done);
      Alcotest.(check int) "each index exactly once" 100 (Array.fold_left ( + ) 0 a))

let test_map_reduce_order () =
  with_temp_pool 4 (fun p ->
      let r =
        Par.map_reduce p ~tasks:16 ~map:(fun i -> [ i ]) ~reduce:( @ ) ~init:[]
      in
      Alcotest.(check (list int)) "index order" (List.init 16 Fun.id) r)

let test_exception_propagates () =
  with_temp_pool 4 (fun p ->
      Alcotest.check_raises "task exception re-raised" (Failure "boom") (fun () ->
          Par.run_tasks p
            (Array.init 8 (fun i () -> if i = 5 then failwith "boom"))))

let test_pool_reusable_after_raise () =
  (* the Par.run_tasks exception contract: a raising task drains the
     batch and re-raises, leaving the pool fully reusable *)
  with_temp_pool 4 (fun p ->
      (try
         Par.parallel_for p ~start:0 ~stop:100 (fun lo _ ->
             if lo >= 0 then failwith "kaboom")
       with Failure _ -> ());
      let a = Array.make 100 (-1) in
      Par.parallel_for p ~start:0 ~stop:100 (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- i
          done);
      Array.iteri (fun i v -> Alcotest.(check int) "pool still covers" i v) a;
      let sum =
        Par.map_reduce p ~tasks:8 ~map:Fun.id ~reduce:( + ) ~init:0
      in
      Alcotest.(check int) "map_reduce still works" 28 sum)

let test_nested_calls_run () =
  (* a body that re-enters the pool runs sequentially, not deadlocking *)
  with_temp_pool 4 (fun p ->
      let a = Array.make 64 0 in
      Par.parallel_for p ~start:0 ~stop:8 (fun lo hi ->
          for i = lo to hi - 1 do
            Par.parallel_for p ~start:(8 * i) ~stop:(8 * (i + 1)) (fun lo2 hi2 ->
                for j = lo2 to hi2 - 1 do
                  a.(j) <- j + 1
                done)
          done);
      Array.iteri (fun i v -> Alcotest.(check int) "nested covered" (i + 1) v) a)

let test_with_pool_width () =
  Par.with_pool ~jobs:4 (fun p ->
      Alcotest.(check bool) "at least requested width" true (Par.size p >= 4))

(* --- checked cancellation (run_tasks_cancellable contract) --- *)

let test_cancel_before_submit () =
  (* a token set before submission skips every task, at any pool width *)
  List.iter
    (fun jobs ->
      with_temp_pool jobs (fun p ->
          let token = Par.cancel_token () in
          Par.cancel token;
          let hits = Atomic.make 0 in
          let ran =
            Par.run_tasks_cancellable p token
              (Array.init 16 (fun _ () -> Atomic.incr hits))
          in
          Alcotest.(check int) "no task body ran" 0 (Atomic.get hits);
          Alcotest.(check int) "ran count is zero" 0 ran))
    [ 1; 4 ]

let test_cancel_mid_run () =
  (* at jobs:1 tasks run in index order, so a token set by task k stops
     every later task deterministically *)
  with_temp_pool 1 (fun p ->
      let token = Par.cancel_token () in
      let hits = ref [] in
      let ran =
        Par.run_tasks_cancellable p token
          (Array.init 8 (fun i () ->
               hits := i :: !hits;
               if i = 2 then Par.cancel token))
      in
      Alcotest.(check (list int)) "tasks after the cancel skipped" [ 2; 1; 0 ]
        !hits;
      Alcotest.(check int) "ran count matches" 3 ran;
      Alcotest.(check bool) "token reads cancelled" true (Par.cancelled token))

let test_cancel_pool_reusable () =
  (* cancellation is per-token: the pool and a fresh token run normally *)
  with_temp_pool 4 (fun p ->
      let dead = Par.cancel_token () in
      Par.cancel dead;
      let _ = Par.run_tasks_cancellable p dead (Array.make 8 (fun () -> ())) in
      let live = Par.cancel_token () in
      let hits = Atomic.make 0 in
      let ran =
        Par.run_tasks_cancellable p live
          (Array.init 8 (fun _ () -> Atomic.incr hits))
      in
      Alcotest.(check int) "all tasks ran" 8 (Atomic.get hits);
      Alcotest.(check int) "ran count full" 8 ran)

(* --- determinism: any jobs count reproduces the ~jobs:1 reference --- *)

let bell3 =
  Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.T 1; Gate.Cnot (1, 2) ]

let test_shots_jobs_invariant () =
  let reference = Noise.run_shots ~seed:11 ~jobs:1 Noise.ibm_qx2017 bell3 ~shots:300 in
  List.iter
    (fun jobs ->
      let c = Noise.run_shots ~seed:11 ~jobs Noise.ibm_qx2017 bell3 ~shots:300 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        true
        (Noise.counts_equal reference c))
    [ 2; 3; 4 ]

(* [bell3] holds a T gate, so it runs gate by gate; its Clifford twin
   takes the Pauli-frame path *)
let ghz3 = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.S 1; Gate.Cnot (1, 2) ]

let test_shots_jobs_invariant_clifford () =
  let reference = Noise.run_shots ~seed:11 ~jobs:1 Noise.ibm_qx2017 ghz3 ~shots:300 in
  List.iter
    (fun jobs ->
      let c = Noise.run_shots ~seed:11 ~jobs Noise.ibm_qx2017 ghz3 ~shots:300 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        true
        (Noise.counts_equal reference c))
    [ 2; 3; 4 ];
  let m1, s1 = Noise.runs_statistics ~jobs:1 Noise.ibm_qx2017 ghz3 ~shots:128 ~runs:2 in
  let m4, s4 = Noise.runs_statistics ~jobs:4 Noise.ibm_qx2017 ghz3 ~shots:128 ~runs:2 in
  Alcotest.(check bool) "runs_statistics identical" true (m1 = m4 && s1 = s4)

(* The gate-by-gate path, sparse then dense: the 17-qubit addeq:3
   oracle of the service's spec pool stays sparse, and [spread] goes
   dense in mid-shot (support 2^9 past its budget of 32). *)
let addeq3 =
  lazy
    (let spec = Core.Flow.Xag_spec (Rev.Arith.xag_add_equals 3) in
     fst
       (Serve.compile_request ~level:0
          { Serve.tenant = "t"; spec; pipeline = None; backend = "noisy"; shots = 1;
            deadline_us = 0. }))

let spread =
  Circuit.of_gates 9
    ((Gate.T 0 :: List.init 9 (fun q -> Gate.H q)) @ [ Gate.Ccx (0, 1, 2); Gate.Tdg 2; Gate.H 5 ])

let test_shots_jobs_invariant_sparse () =
  List.iter
    (fun (name, c) ->
      let run jobs =
        let m = Obs.Memory.create () in
        Obs.reset ();
        Obs.set_sink (Some (Obs.Memory.sink m));
        let counts =
          Fun.protect
            ~finally:(fun () -> Obs.set_sink None)
            (fun () -> Noise.run_shots ~seed:13 ~jobs Noise.ibm_qx2017 c ~shots:120)
        in
        let totals = Obs.Summary.counter_totals (Obs.Memory.events m) in
        ( counts,
          List.filter
            (fun (k, _) ->
              List.mem k [ "qc.noise.sparse_shots"; "qc.noise.densified_shots"; "qc.noise.errors_injected" ])
            totals )
      in
      let reference, ref_totals = run 1 in
      List.iter
        (fun jobs ->
          let counts, totals = run jobs in
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d bit-identical" name jobs)
            true
            (Noise.counts_equal reference counts);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s: jobs=%d counters" name jobs)
            ref_totals totals)
        [ 2; 3; 4 ])
    [ ("addeq:3", Lazy.force addeq3); ("spread", spread) ]

let test_shots_jobs_invariant_noiseless () =
  (* the shared-sampler fast path must honour the same contract *)
  let params = { Noise.noiseless with Noise.readout = 0.1 } in
  let reference = Noise.run_shots ~seed:5 ~jobs:1 params bell3 ~shots:200 in
  let c4 = Noise.run_shots ~seed:5 ~jobs:4 params bell3 ~shots:200 in
  Alcotest.(check bool) "noiseless path invariant" true (Noise.counts_equal reference c4)

let test_runs_statistics_jobs_invariant () =
  let m1, s1 = Noise.runs_statistics ~jobs:1 Noise.ibm_qx2017 bell3 ~shots:128 ~runs:2 in
  let m4, s4 = Noise.runs_statistics ~jobs:4 Noise.ibm_qx2017 bell3 ~shots:128 ~runs:2 in
  Alcotest.(check bool) "means identical" true (m1 = m4);
  Alcotest.(check bool) "stddevs identical" true (s1 = s4)

let test_obs_totals_under_jobs () =
  (* the per-domain accumulate + single flush must preserve counter totals *)
  let totals c jobs =
    let m = Obs.Memory.create () in
    Obs.reset ();
    Obs.set_sink (Some (Obs.Memory.sink m));
    let (_ : Noise.counts) = Noise.run_shots ~seed:3 ~jobs Noise.ibm_qx2017 c ~shots:100 in
    Obs.set_sink None;
    Obs.Summary.counter_totals (Obs.Memory.events m)
  in
  Alcotest.(check bool) "counter totals jobs-invariant" true (totals bell3 1 = totals bell3 4);
  Alcotest.(check bool) "Pauli-frame totals jobs-invariant" true
    (totals ghz3 1 = totals ghz3 4)

(* --- sampler: binary search = linear scan --- *)

let test_sampler_matches_sample () =
  let s = Statevector.run bell3 in
  let smp = Statevector.sampler s in
  for seed = 0 to 50 do
    let st1 = Helpers.rng seed and st2 = Helpers.rng seed in
    Alcotest.(check int) "same draw"
      (Statevector.sample st1 s) (Statevector.sample_with smp st2)
  done

(* --- sparse histograms --- *)

let test_sparse_counts_api () =
  let c = Noise.counts_make 21 in
  Noise.counts_add c 5 2;
  Noise.counts_add c (1 lsl 20) 1;
  Noise.counts_add c 5 1;
  Alcotest.(check int) "count" 3 (Noise.count c 5);
  Alcotest.(check int) "count" 1 (Noise.count c (1 lsl 20));
  Alcotest.(check int) "absent" 0 (Noise.count c 7);
  Alcotest.(check int) "total" 4 (Noise.total_counts c);
  Alcotest.(check int) "size" (1 lsl 21) (Noise.counts_size c);
  Alcotest.(check (list (pair int int))) "alist sorted"
    [ (5, 3); (1 lsl 20, 1) ]
    (Noise.counts_to_alist c)

let test_sparse_run_shots () =
  (* a 21-qubit noiseless run: the histogram must not allocate 2^21 ints *)
  let c = Circuit.of_gates 21 [ Gate.X 20 ] in
  let counts = Noise.run_shots ~seed:1 Noise.noiseless c ~shots:5 in
  Alcotest.(check int) "all shots on |1…0>" 5 (Noise.count counts (1 lsl 20))

(* --- run_on telemetry (satellite: same span/counters as run) --- *)

let test_run_on_telemetry () =
  let m = Obs.Memory.create () in
  Obs.set_sink (Some (Obs.Memory.sink m));
  let s = Statevector.init 3 in
  Statevector.run_on s bell3;
  Obs.set_sink None;
  let events = Obs.Memory.events m in
  let spans = Obs.Summary.span_totals events in
  Alcotest.(check bool) "span emitted" true
    (List.mem_assoc "qc.statevector.run" spans);
  let counters = Obs.Summary.counter_totals events in
  Alcotest.(check (option int)) "gates counted"
    (Some (Circuit.num_gates bell3))
    (List.assoc_opt "qc.statevector.gates_applied" counters)

(* --- the CLI surface --- *)

let test_shell_jobs_command () =
  let out = Core.Shell.run_script "jobs 3; jobs" in
  Alcotest.(check bool) "set" true (Helpers.contains ~needle:"jobs set to 3" out);
  Alcotest.(check bool) "query" true (Helpers.contains ~needle:"jobs: 3" out);
  Par.set_default_jobs 1

let test_backend_jobs_spec () =
  let b = Backend.of_spec "noisy:shots=64,jobs=2" in
  (match b.Backend.run bell3 with
  | Backend.Histogram freqs ->
      let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. freqs in
      Alcotest.(check (float 1e-9)) "frequencies sum to 1" 1. total
  | _ -> Alcotest.fail "expected a histogram");
  Alcotest.check_raises "bad jobs rejected"
    (Backend.Unsupported "noisy:jobs: expected a positive integer, got x")
    (fun () -> ignore (Backend.of_spec "noisy:jobs=x"))

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers;
          Alcotest.test_case "explicit chunk counts" `Quick test_parallel_for_chunks;
          Alcotest.test_case "map_reduce index order" `Quick test_map_reduce_order;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "pool reusable after raise" `Quick
            test_pool_reusable_after_raise;
          Alcotest.test_case "nested calls degrade" `Quick test_nested_calls_run;
          Alcotest.test_case "with_pool width" `Quick test_with_pool_width ] );
      ( "cancellation",
        [ Alcotest.test_case "pre-cancelled token skips all" `Quick
            test_cancel_before_submit;
          Alcotest.test_case "mid-run cancel at jobs 1" `Quick test_cancel_mid_run;
          Alcotest.test_case "pool reusable after cancel" `Quick
            test_cancel_pool_reusable ] );
      ( "determinism",
        [ Alcotest.test_case "run_shots jobs 1/2/3/4" `Quick test_shots_jobs_invariant;
          Alcotest.test_case "Pauli-frame path" `Quick test_shots_jobs_invariant_clifford;
          Alcotest.test_case "sparse-then-dense path" `Quick test_shots_jobs_invariant_sparse;
          Alcotest.test_case "noiseless fast path" `Quick test_shots_jobs_invariant_noiseless;
          Alcotest.test_case "runs_statistics" `Quick test_runs_statistics_jobs_invariant;
          Alcotest.test_case "telemetry totals" `Quick test_obs_totals_under_jobs ] );
      ( "sampling",
        [ Alcotest.test_case "binary search = linear scan" `Quick test_sampler_matches_sample;
          Alcotest.test_case "sparse counts api" `Quick test_sparse_counts_api;
          Alcotest.test_case "sparse run_shots at 21q" `Quick test_sparse_run_shots ] );
      ( "integration",
        [ Alcotest.test_case "run_on telemetry" `Quick test_run_on_telemetry;
          Alcotest.test_case "shell jobs command" `Quick test_shell_jobs_command;
          Alcotest.test_case "backend noisy:jobs" `Quick test_backend_jobs_spec ] ) ]
