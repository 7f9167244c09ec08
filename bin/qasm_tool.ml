(* Swiss-army knife for OpenQASM 2.0 files (the subset of Qc.Qasm).

   Usage:
     qasm_tool stats    file.qasm     gate statistics / resources
     qasm_tool draw     file.qasm     ASCII rendering
     qasm_tool sim      file.qasm     outcome distribution (noiseless)
     qasm_tool stabsim  file.qasm     stabilizer run (Clifford files only)
     qasm_tool route    file.qasm     LNN-route and re-emit QASM
     qasm_tool tpar     file.qasm     T-par optimize and re-emit QASM
     qasm_tool qsharp   file.qasm     emit as a Q# operation
     qasm_tool passes <spec> file.qasm   run registered quantum-layer passes
                                         (e.g. tpar,peephole,route); trace on
                                         stderr, QASM on stdout
     qasm_tool run <target> file.qasm    hand to a unified backend (statevector,
                                         stabilizer, noisy[:shots=N], qasm,
                                         qsharp[:Name], draw)

   '-' reads from stdin. With --oracle-xag SPEC (plus --lut-k and
   --ancilla-budget) the file argument is dropped and every subcommand
   operates on the compiled XAG arithmetic oracle instead. *)

let read_file = function
  | "-" ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf stdin 1
         done
       with End_of_file -> ());
      Buffer.contents buf
  | path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s

let parse_file file =
  try Qc.Qasm.parse (read_file file)
  with Qc.Qasm.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 1

(* [--trace-out FILE] (anywhere on the command line) records cross-layer
   telemetry for the whole invocation and writes it to FILE at exit;
   format by extension (.jsonl | .json Chrome trace | table). *)
let extract_trace_out argv =
  let rec scan acc = function
    | "--trace-out" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> scan (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  scan [] argv

(* [--jobs N] (anywhere on the command line) pins the worker-domain count
   used by the noisy backend and the large statevector kernels. *)
let extract_jobs argv =
  let rec scan acc = function
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | _ ->
            Printf.eprintf "--jobs: expected a positive integer, got %s\n" n;
            exit 2)
    | a :: rest -> scan (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  scan [] argv

(* [--shard-bits S] (anywhere on the command line) forces the sharded
   statevector's slab size to 2^S amplitudes; without it the slab size
   is chosen automatically from the qubit count and the pool width.
   Results are bit-identical either way — the flag exists for tuning
   and for exercising the cross-slab kernels. *)
let extract_shard_bits argv =
  let rec scan acc = function
    | "--shard-bits" :: n :: rest -> (
        match int_of_string_opt n with
        | Some s when s >= 1 -> (Some s, List.rev_append acc rest)
        | _ ->
            Printf.eprintf "--shard-bits: expected a positive integer, got %s\n" n;
            exit 2)
    | a :: rest -> scan (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  scan [] argv

(* [--cache DIR] persists the compilation cache (pass results reused by the
   passes subcommand) in DIR and reports hits/misses on stderr at exit;
   [--no-cache] disables the in-memory cache. *)
let extract_cache argv =
  let rec scan dir off acc = function
    | "--cache" :: d :: rest -> scan (Some d) off acc rest
    | "--no-cache" :: rest -> scan dir true acc rest
    | a :: rest -> scan dir off (a :: acc) rest
    | [] -> (dir, off, List.rev acc)
  in
  scan None false [] argv

(* [--oracle-xag SPEC] (anywhere on the command line) replaces the QASM
   file argument: the circuit is generated by compiling the named
   arithmetic oracle through the XAG pipeline (see Core.Flow.xag_of_spec),
   tuned by [--lut-k K] and [--ancilla-budget B]. *)
let extract_oracle argv =
  let pos n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> v
    | _ ->
        Printf.eprintf "expected a positive integer, got %s\n" n;
        exit 2
  in
  let rec scan spec k budget acc = function
    | "--oracle-xag" :: s :: rest -> scan (Some s) k budget acc rest
    | "--lut-k" :: n :: rest -> scan spec (pos n) budget acc rest
    | "--ancilla-budget" :: n :: rest -> scan spec k (Some (pos n)) acc rest
    | a :: rest -> scan spec k budget (a :: acc) rest
    | [] -> (spec, k, budget, List.rev acc)
  in
  scan None 4 None [] argv

(* [--faults PROFILE], [--max-retries N] and [--deadline N] route the run
   subcommand through the resilient device layer. *)
let extract_device argv =
  let pos n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> v
    | _ ->
        Printf.eprintf "expected a positive integer, got %s\n" n;
        exit 2
  in
  let rec scan faults retries deadline acc = function
    | "--faults" :: p :: rest -> scan (Some p) retries deadline acc rest
    | "--max-retries" :: n :: rest -> scan faults (Some (pos n)) deadline acc rest
    | "--deadline" :: n :: rest -> scan faults retries (Some (pos n)) acc rest
    | a :: rest -> scan faults retries deadline (a :: acc) rest
    | [] -> (faults, retries, deadline, List.rev acc)
  in
  scan None None None [] argv

(* The workload-corpus front end:

     qasm_tool corpus list
     qasm_tool corpus run  [--out FILE] [--no-timings] [spec…]
     qasm_tool corpus diff OLD NEW [--fail-on-regression]
                           [--threshold m=v[,m=v…]] [--json FILE]

   [run] executes the named entries (default: the full default manifest)
   and prints the metric table; [--out] persists the versioned snapshot,
   [--no-timings] zeroes wall-clock fields so snapshots are
   byte-reproducible. [diff] compares two snapshots (bare or embedded in
   a BENCH_pr*.json) and, under [--fail-on-regression], exits 1 when any
   metric regresses past its threshold. *)
let corpus_main rest =
  let usage () =
    prerr_endline
      "usage: qasm_tool corpus list\n\
      \       qasm_tool corpus run [--out <file>] [--no-timings] [spec…]\n\
      \       qasm_tool corpus diff <old> <new> [--fail-on-regression]\n\
      \                             [--threshold m=v[,m=v…]] [--json <file>]";
    exit 2
  in
  match rest with
  | "list" :: _ ->
      List.iter (fun (name, doc) -> Printf.printf "%-10s %s\n" name doc)
        Corpus.families;
      Printf.printf "default manifest: %s\n"
        (String.concat " " (List.map Corpus.entry_name Corpus.default_manifest))
  | "run" :: args ->
      let rec scan out timings specs = function
        | "--out" :: f :: rest -> scan (Some f) timings specs rest
        | "--no-timings" :: rest -> scan out false specs rest
        | a :: rest -> scan out timings (a :: specs) rest
        | [] -> (out, timings, List.rev specs)
      in
      let out, timings, specs = scan None true [] args in
      let entries =
        if specs = [] then Corpus.default_manifest else Corpus.parse_entries specs
      in
      let config = { Corpus.default_config with Corpus.timings } in
      let records = Corpus.run ~config entries in
      print_string (Corpus.table records);
      Option.iter
        (fun f ->
          Corpus.write_snapshot f (Corpus.snapshot records);
          Printf.eprintf "wrote %d corpus records to %s\n" (List.length records) f)
        out
  | "diff" :: old_path :: new_path :: flags ->
      let rec scan fail thr json = function
        | "--fail-on-regression" :: rest -> scan true thr json rest
        | "--threshold" :: spec :: rest -> scan fail (Some spec) json rest
        | "--json" :: f :: rest -> scan fail thr (Some f) rest
        | _ :: _ -> usage ()
        | [] -> (fail, thr, json)
      in
      let fail_on_regression, thr_spec, json_out = scan false None None flags in
      let thresholds =
        match thr_spec with
        | None -> Corpus.Diff.default_thresholds
        | Some spec -> Corpus.Diff.parse_thresholds spec
      in
      let report =
        Corpus.Diff.diff ~thresholds
          (Corpus.read_snapshot old_path)
          (Corpus.read_snapshot new_path)
      in
      print_string (Corpus.Diff.render report);
      Option.iter
        (fun f ->
          let oc = open_out f in
          output_string oc (Obs.Json.to_string (Corpus.Diff.to_json report));
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote diff to %s\n" f)
        json_out;
      if fail_on_regression && Corpus.Diff.has_regressions report then exit 1
  | _ -> usage ()

(* The multi-tenant service front end:

     qasm_tool serve tenants <spec>
     qasm_tool serve load [--requests N] [--tenants SPEC] [--seed N]
                          [--rate R] [--shots N] [--deadline-scale F]

   [load] plays an open-loop mixed workload (Poisson arrivals at R times
   the modelled capacity) through the service and prints the
   deterministic summary on stdout — byte-identical across runs and
   across --jobs for a fixed seed; wall-clock throughput goes to stderr.
   The global --faults PROFILE wraps noisy execution in a resilient
   device with injected faults. *)
let serve_main ~faults rest =
  let usage () =
    prerr_endline
      "usage: qasm_tool serve tenants <spec>\n\
      \       qasm_tool serve load [--requests <n>] [--tenants <spec>]\n\
      \                            [--seed <n>] [--rate <r>] [--shots <n>]\n\
      \                            [--deadline-scale <f>]";
    exit 2
  in
  let pos name n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> v
    | _ ->
        Printf.eprintf "%s: expected a positive integer, got %s\n" name n;
        exit 2
  in
  let posf name n =
    match float_of_string_opt n with
    | Some v when v > 0. -> v
    | _ ->
        Printf.eprintf "%s: expected a positive number, got %s\n" name n;
        exit 2
  in
  match rest with
  | [ "tenants"; spec ] ->
      List.iter
        (fun t -> print_endline (Serve.tenant_to_string t))
        (Serve.tenants_of_spec spec)
  | "load" :: args ->
      let t = ref Serve.Load.default in
      let rec scan = function
        | "--requests" :: n :: r ->
            t := { !t with Serve.Load.requests = pos "--requests" n };
            scan r
        | "--tenants" :: spec :: r ->
            t := { !t with Serve.Load.tenants = Serve.tenants_of_spec spec };
            scan r
        | "--seed" :: n :: r ->
            t := { !t with Serve.Load.seed = pos "--seed" n };
            scan r
        | "--rate" :: n :: r ->
            t := { !t with Serve.Load.rate = posf "--rate" n };
            scan r
        | "--shots" :: n :: r ->
            t := { !t with Serve.Load.shots = pos "--shots" n };
            scan r
        | "--deadline-scale" :: n :: r ->
            t := { !t with Serve.Load.deadline_scale = posf "--deadline-scale" n };
            scan r
        | [] -> ()
        | _ -> usage ()
      in
      scan args;
      let t =
        { !t with
          Serve.Load.faults = Option.map Device.profile_of_spec faults }
      in
      print_endline (Serve.Load.describe t);
      let s = Serve.Load.run t in
      List.iter print_endline (Serve.summary_lines s);
      let delivered = s.Serve.n_validated + s.Serve.n_degraded in
      Printf.eprintf "wall %.1fms, %.0f jobs/sec\n" (s.Serve.wall_us /. 1e3)
        (float_of_int delivered /. Float.max 1e-9 (s.Serve.wall_us /. 1e6))
  | _ -> usage ()

let main () =
  let trace_out, argv = extract_trace_out (Array.to_list Sys.argv) in
  let jobs, argv = extract_jobs argv in
  let shard_bits, argv = extract_shard_bits argv in
  Qc.Statevector.set_shard_bits shard_bits;
  let cache_dir, no_cache, argv = extract_cache argv in
  let oracle_spec, lut_k, ancilla_budget, argv = extract_oracle argv in
  let faults, max_retries, deadline, argv = extract_device argv in
  (* with an oracle the file argument disappears: every subcommand operates
     on the compiled oracle circuit instead *)
  let oracle_sentinel = "--oracle--" in
  let argv =
    match oracle_spec with Some _ -> argv @ [ oracle_sentinel ] | None -> argv
  in
  let circuit_of file =
    if file == oracle_sentinel then begin
      let g = Core.Flow.xag_of_spec (Option.get oracle_spec) in
      let circuit, report = Core.Flow.compile_xag ~lut_k ?ancilla_budget g in
      Printf.eprintf "oracle %s: %d qubits, LUT ancillae %d\n"
        (Option.get oracle_spec)
        (Qc.Circuit.num_qubits circuit)
        (Core.Flow.xag_ancillae g report);
      circuit
    end
    else parse_file file
  in
  Option.iter Par.set_default_jobs jobs;
  if no_cache then Cache.set_enabled false
  else
    Option.iter
      (fun d ->
        Cache.set_dir (Some d);
        at_exit (fun () -> Printf.eprintf "%s\n" (Cache.summary_string ())))
      cache_dir;
  (match trace_out with
  | None -> ()
  | Some file ->
      let m = Obs.Memory.create () in
      Obs.set_sink (Some (Obs.Memory.sink m));
      at_exit (fun () ->
          Obs.set_sink None;
          Obs.Export.write_file file (Obs.Memory.events m);
          Printf.eprintf "wrote %d telemetry events to %s\n" (Obs.Memory.length m) file));
  match argv with
  | _ :: "corpus" :: rest -> corpus_main rest
  | _ :: "serve" :: rest -> serve_main ~faults rest
  | [ _; "passes"; spec; file ] ->
      let ps = Core.Pass.parse_qc spec in
      let circuit, trace = Core.Pass.run_qc ps (circuit_of file) in
      Printf.eprintf "%s\n" (Core.Pass.trace_to_string trace);
      print_string (Qc.Qasm.to_string ~measure:false circuit)
  | [ _; "run"; target; file ] -> (
      match faults with
      | Some spec ->
          let profile = Device.profile_of_spec spec in
          let policy =
            { Device.default_policy with
              Device.max_retries =
                Option.value max_retries
                  ~default:Device.default_policy.Device.max_retries;
              deadline =
                Option.value deadline ~default:Device.default_policy.Device.deadline }
          in
          let device = Device.of_spec ~policy ~profile target in
          let job = Device.submit device (circuit_of file) in
          print_endline (Qc.Backend.outcome_to_string (Device.outcome_of_job job));
          print_endline (Device.job_summary job)
      | None ->
          let backend = Qc.Backend.of_spec target in
          print_endline
            (Qc.Backend.outcome_to_string (backend.Qc.Backend.run (circuit_of file))))
  | [ _; cmd; file ] -> (
      let circuit = circuit_of file in
      match cmd with
      | "stats" ->
          print_endline (Qc.Resource.to_string_v (Qc.Resource.count circuit))
      | "draw" -> print_string (Qc.Draw.to_string circuit)
      | "sim" ->
          (* width is bounded by the statevector allocation guard
             (DAUTOQ_SV_MAX_QUBITS); probabilities stream one at a time
             so printing never materializes a second 2^n array *)
          let sv = Qc.Statevector.run circuit in
          for x = 0 to Qc.Statevector.size sv - 1 do
            let p = Qc.Statevector.prob sv x in
            if p > 1e-6 then Printf.printf "%6d  %.6f\n" x p
          done
      | "stabsim" -> (
          match Qc.Sim.tableau circuit with
          | None ->
              Printf.eprintf "stabsim: non-Clifford gates present\n";
              exit 1
          | Some (outcome, deterministic) ->
              print_endline
                (Qc.Backend.outcome_to_string (Qc.Backend.Measured { outcome; deterministic })))
      | "route" ->
          let r = Qc.Route.lnn circuit in
          Printf.eprintf "inserted %d SWAPs; final placement: [%s]\n"
            r.Qc.Route.swaps_inserted
            (String.concat ";"
               (Array.to_list (Array.map string_of_int r.Qc.Route.final_placement)));
          print_string (Qc.Qasm.to_string ~measure:false r.Qc.Route.circuit)
      | "tpar" ->
          let optimized, rep = Qc.Tpar.optimize_report circuit in
          Printf.eprintf "T-count %d -> %d\n" rep.Qc.Tpar.t_before rep.Qc.Tpar.t_after;
          print_string (Qc.Qasm.to_string ~measure:false optimized)
      | "qsharp" ->
          print_string (Qc.Qsharp_gen.operation ~name:"ImportedCircuit" circuit)
      | other ->
          Printf.eprintf "unknown command %s\n" other;
          exit 2)
  | _ ->
      prerr_endline
        "usage: qasm_tool {stats|draw|sim|stabsim|route|tpar|qsharp} <file.qasm|->\n\
        \       qasm_tool passes <spec> <file.qasm|->\n\
        \       qasm_tool run <target> <file.qasm|->\n\
        \       qasm_tool serve {tenants <spec> | load [--requests <n>] …}\n\
        \       (any form also accepts --trace-out <file>, --jobs <n>,\n\
        \        --shard-bits <s>, --cache <dir> and --no-cache;\n\
        \        run also accepts --faults\n\
        \        <profile>, --max-retries <n> and --deadline <n>;\n\
        \        --oracle-xag <spec> [--lut-k <k>] [--ancilla-budget <b>]\n\
        \        replaces the file argument with a compiled XAG oracle)";
      exit 2

(* Operational errors (bad backend spec, bad pass spec, bad fault profile,
   bad oracle spec, infeasible ancilla budget) exit with a one-line message
   instead of an uncaught-exception backtrace. *)
let () =
  try main () with
  | Qc.Backend.Unsupported msg
  | Qc.Statevector.Unsupported msg
  | Core.Pass.Spec_error msg
  | Device.Bad_profile msg
  | Serve.Bad_tenant msg
  | Corpus.Bad_spec msg
  | Corpus.Bad_snapshot msg
  | Corpus.Diff.Bad_threshold msg
  | Obs.Json.Parse_error msg
  | Sys_error msg
  | Invalid_argument msg ->
      Printf.eprintf "qasm_tool: %s\n" msg;
      exit 2
  | Rev.Pebble.Infeasible { budget; required } ->
      Printf.eprintf
        "qasm_tool: ancilla budget %d is infeasible for this oracle (needs >= %d)\n"
        budget required;
      exit 2
