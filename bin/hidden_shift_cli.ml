(* Command-line driver for the hidden-shift benchmark (paper Secs. VI-VIII).

   Examples:
     hidden-shift ip -n 2 --shift 1
     hidden-shift mm --pi 0,2,3,5,7,1,4,6 --shift 5 --synth dbs --draw
     hidden-shift random -n 3 --seed 7 --noisy --shots 1024 --runs 3
     hidden-shift ip -n 2 --shift 1 --qasm
     hidden-shift ip -n 2 --passes tpar,peephole --target statevector *)

open Cmdliner

let synth_of_string = function
  | "tbs" -> Ok Pq.Oracles.Tbs
  | "tbs-basic" -> Ok Pq.Oracles.Tbs_basic
  | "dbs" -> Ok Pq.Oracles.Dbs
  | s -> Error (`Msg (Printf.sprintf "unknown synthesis method %s" s))

let synth_conv =
  Arg.conv
    ( (fun s -> synth_of_string s),
      fun ppf s ->
        Fmt.string ppf
          (match s with
          | Pq.Oracles.Tbs -> "tbs"
          | Pq.Oracles.Tbs_basic -> "tbs-basic"
          | Pq.Oracles.Dbs -> "dbs") )

let pi_conv =
  Arg.conv
    ( (fun s ->
        try
          Ok (Logic.Perm.of_list (List.map int_of_string (String.split_on_char ',' s)))
        with _ -> Error (`Msg "expected comma-separated permutation, e.g. 0,2,3,5,7,1,4,6")),
      fun ppf p -> Logic.Perm.pp ppf p )

let run instance ~noisy ~shots ~runs ~draw ~qasm ~passes ~target ~faults
    ~max_retries ~deadline =
  let circuit = Core.Hidden_shift.build instance in
  let circuit =
    match passes with
    | None -> circuit
    | Some spec ->
        (* Clifford+T lowering, then the named quantum-layer passes *)
        let ps = Core.Pass.parse_qc spec in
        let mapped, ancillae = Qc.Clifford_t.compile circuit in
        let c, trace = Core.Pass.run_qc ps mapped in
        Printf.printf "compiled to Clifford+T (+%d ancillae), passes: %s\n%s\n" ancillae
          spec
          (Core.Pass.trace_to_string trace);
        c
  in
  Printf.printf "qubits: %d, gates: %d\n"
    (Qc.Circuit.num_qubits circuit) (Qc.Circuit.num_gates circuit);
  if draw then print_string (Qc.Draw.to_string circuit);
  if qasm then print_string (Qc.Qasm.to_string circuit);
  match faults with
  | Some spec ->
      (* resilient-device path: the fault profile wraps the execution
         target (default a noisy backend with a statevector fallback) *)
      let profile = Device.profile_of_spec spec in
      let policy =
        { Device.default_policy with
          Device.max_retries; deadline = max 1 deadline }
      in
      let target_spec =
        Option.value target ~default:(Printf.sprintf "noisy:shots=%d" shots)
      in
      let device = Device.of_spec ~policy ~profile target_spec in
      let job = Device.submit ~shots device circuit in
      print_endline (Qc.Backend.outcome_to_string (Device.outcome_of_job job));
      print_endline (Device.job_summary job);
      (match Device.modal job with
      | Some x ->
          let s = Core.Hidden_shift.shift instance in
          Printf.printf "Shift is %d%s\n" x
            (if x = s then "" else "  (MISMATCH!)")
      | None -> print_endline "no shots delivered; no shift recovered")
  | None ->
  (match target with
  | None -> ()
  | Some spec ->
      let backend = Qc.Backend.of_spec spec in
      print_endline (Qc.Backend.outcome_to_string (backend.Qc.Backend.run circuit)));
  if noisy then begin
    let mean, std =
      Core.Hidden_shift.run_noisy Qc.Noise.ibm_qx2017 instance ~shots ~runs
    in
    Printf.printf "outcome histogram over %d runs x %d shots:\n" runs shots;
    Array.iteri
      (fun x m -> if m > 0.004 then Printf.printf "  %4d  %.4f +- %.4f\n" x m std.(x))
      mean;
    let s = Core.Hidden_shift.shift instance in
    Printf.printf "Shift is %d (success probability %.3f)\n" s mean.(s)
  end
  else if target = None then begin
    let found = Core.Hidden_shift.solve instance in
    Printf.printf "Shift is %d%s\n" found
      (if found = Core.Hidden_shift.shift instance then "" else "  (MISMATCH!)")
  end

(* With --trace-out the whole run records into a memory sink; the file
   format is inferred from the extension (.jsonl event log, .json Chrome
   trace loadable in Perfetto, anything else a human table). With --cache
   DIR the compilation cache persists into DIR and a hit/miss summary goes
   to stderr; --no-cache disables memoization entirely. *)
let with_session ~jobs ~shard_bits ~cache_dir ~no_cache ~trace_out body =
  Option.iter Par.set_default_jobs jobs;
  Qc.Statevector.set_shard_bits shard_bits;
  if no_cache then Cache.set_enabled false;
  if not no_cache then Option.iter (fun d -> Cache.set_dir (Some d)) cache_dir;
  let recorder = Option.map (fun _ -> Obs.Memory.create ()) trace_out in
  Option.iter (fun m -> Obs.set_sink (Some (Obs.Memory.sink m))) recorder;
  let finish () =
    Obs.set_sink None;
    (match (trace_out, recorder) with
    | Some file, Some m ->
        Obs.Export.write_file file (Obs.Memory.events m);
        Printf.eprintf "wrote %d telemetry events to %s\n" (Obs.Memory.length m) file
    | _ -> ());
    if cache_dir <> None && not no_cache then
      Printf.eprintf "%s\n" (Cache.summary_string ())
  in
  match body () with
  | () -> finish ()
  | exception
      ( Core.Pass.Spec_error msg
      | Qc.Backend.Unsupported msg
      | Qc.Statevector.Unsupported msg
      | Device.Bad_profile msg
      | Serve.Bad_tenant msg
      | Invalid_argument msg ) ->
      (* operational errors exit with a one-line message, never a backtrace *)
      finish ();
      Printf.eprintf "hidden-shift: %s\n" msg;
      exit 2
  | exception Rev.Pebble.Infeasible { budget; required } ->
      finish ();
      Printf.eprintf
        "hidden-shift: ancilla budget %d is infeasible for this oracle (needs >= %d)\n"
        budget required;
      exit 2

let run instance ~jobs ~shard_bits ~cache_dir ~no_cache ~noisy ~shots ~runs
    ~draw ~qasm ~passes ~target ~trace_out ~faults ~max_retries ~deadline =
  with_session ~jobs ~shard_bits ~cache_dir ~no_cache ~trace_out (fun () ->
      run instance ~noisy ~shots ~runs ~draw ~qasm ~passes ~target ~faults
        ~max_retries ~deadline)

(* common flags *)
let noisy = Arg.(value & flag & info [ "noisy" ] ~doc:"Run on the noisy (IBM-like) backend.")
let shots = Arg.(value & opt int 1024 & info [ "shots" ] ~doc:"Shots per run (noisy mode).")
let runs = Arg.(value & opt int 3 & info [ "runs" ] ~doc:"Number of runs (noisy mode).")
let draw = Arg.(value & flag & info [ "draw" ] ~doc:"Print an ASCII drawing of the circuit.")
let qasm = Arg.(value & flag & info [ "qasm" ] ~doc:"Print the circuit as OpenQASM 2.0.")
let shift_arg = Arg.(value & opt int 1 & info [ "shift"; "s" ] ~doc:"The planted hidden shift.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for parallel execution (noisy shots and large \
           statevector kernels). Defaults to the machine's recommended domain \
           count. Results are bit-identical for any value."
        ~docv:"N")

let shard_bits_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-bits" ]
        ~doc:
          "Force the sharded statevector's slab size to 2^$(docv) amplitudes \
           (default: chosen automatically from the qubit count and the pool \
           width). Results are bit-identical for any value."
        ~docv:"S")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ]
        ~doc:
          "Persist the compilation cache (NPN-indexed synthesis results, \
           Clifford+T lowering results) in $(docv); warm runs reuse them and a \
           hit/miss summary is printed to stderr. Results are bit-identical \
           with or without the cache."
        ~docv:"DIR")

let no_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-cache" ]
        ~doc:"Disable the in-memory compilation cache (identical results; only timing changes).")

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ]
        ~doc:"Lower to Clifford+T and run the named quantum-layer passes (e.g. tpar,peephole,route).")

let target_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ]
        ~doc:"Hand the circuit to a unified backend: statevector | stabilizer | noisy[:shots=N] | qasm | qsharp[:Name] | draw.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Record cross-layer telemetry and write it to $(docv); format by \
           extension: .jsonl event log, .json Chrome trace (Perfetto), else a \
           human-readable table."
        ~docv:"FILE")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ]
        ~doc:
          "Execute through the resilient device layer under the named fault \
           profile: none | flaky | hostile, optionally refined with \
           comma-separated key=value overrides (submit=, stuck=, loss=, \
           corrupt=, drift=, seed=, outage=LEN\\@START|off). Injected faults \
           are deterministic in (seed, attempt) and independent of --jobs."
        ~docv:"PROFILE")

let max_retries_arg =
  Arg.(
    value
    & opt int Device.default_policy.Device.max_retries
    & info [ "max-retries" ]
        ~doc:"Retry budget per shot batch under --faults (capped exponential backoff)."
        ~docv:"N")

let deadline_arg =
  Arg.(
    value
    & opt int Device.default_policy.Device.deadline
    & info [ "deadline" ]
        ~doc:
          "Total attempt budget per submission under --faults; when exhausted \
           the job degrades to whatever was salvaged instead of raising."
        ~docv:"ATTEMPTS")

let ip_cmd =
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Half the qubit count (f is on 2n qubits).") in
  let go n s jobs shard_bits cache_dir no_cache noisy shots runs draw qasm
      passes target trace_out faults max_retries deadline =
    run (Core.Hidden_shift.Inner_product { n; s }) ~jobs ~shard_bits ~cache_dir
      ~no_cache ~noisy ~shots ~runs ~draw ~qasm ~passes ~target ~trace_out
      ~faults ~max_retries ~deadline
  in
  Cmd.v
    (Cmd.info "ip" ~doc:"Inner-product instance (the paper's Fig. 4).")
    Term.(
      const go $ n $ shift_arg $ jobs_arg $ shard_bits_arg $ cache_dir_arg
      $ no_cache_arg $ noisy $ shots $ runs $ draw $ qasm $ passes_arg
      $ target_arg $ trace_out_arg $ faults_arg $ max_retries_arg $ deadline_arg)

let mm_cmd =
  let pi =
    Arg.(
      required
      & opt (some pi_conv) None
      & info [ "pi" ] ~doc:"Permutation as comma-separated points, e.g. 0,2,3,5,7,1,4,6.")
  in
  let synth = Arg.(value & opt synth_conv Pq.Oracles.Tbs & info [ "synth" ] ~doc:"tbs | tbs-basic | dbs.") in
  let go pi s synth jobs shard_bits cache_dir no_cache noisy shots runs draw
      qasm passes target trace_out faults max_retries deadline =
    let mm = Logic.Bent.mm pi in
    run (Core.Hidden_shift.Mm { mm; s; synth }) ~jobs ~shard_bits ~cache_dir
      ~no_cache ~noisy ~shots ~runs ~draw ~qasm ~passes ~target ~trace_out
      ~faults ~max_retries ~deadline
  in
  Cmd.v
    (Cmd.info "mm" ~doc:"Maiorana-McFarland instance (the paper's Fig. 7).")
    Term.(
      const go $ pi $ shift_arg $ synth $ jobs_arg $ shard_bits_arg $ cache_dir_arg
      $ no_cache_arg $ noisy $ shots $ runs $ draw $ qasm $ passes_arg
      $ target_arg $ trace_out_arg $ faults_arg $ max_retries_arg $ deadline_arg)

let random_cmd =
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Half register size (2n qubits).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let go n seed jobs shard_bits cache_dir no_cache noisy shots runs draw qasm
      passes target trace_out faults max_retries deadline =
    let st = Random.State.make [| seed |] in
    let inst = Core.Hidden_shift.random_mm_instance st n in
    Printf.printf "random MM instance, planted shift %d\n" (Core.Hidden_shift.shift inst);
    run inst ~jobs ~shard_bits ~cache_dir ~no_cache ~noisy ~shots ~runs
      ~draw ~qasm ~passes ~target ~trace_out ~faults ~max_retries ~deadline
  in
  Cmd.v
    (Cmd.info "random" ~doc:"Random Maiorana-McFarland instance.")
    Term.(
      const go $ n $ seed $ jobs_arg $ shard_bits_arg $ cache_dir_arg $ no_cache_arg
      $ noisy $ shots $ runs $ draw $ qasm $ passes_arg $ target_arg
      $ trace_out_arg $ faults_arg $ max_retries_arg $ deadline_arg)

(* --- the XAG oracle pipeline (wide arithmetic predicates) --- *)

let oracle_xag_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "oracle-xag" ]
        ~doc:
          "Compile the named arithmetic oracle through the XAG pipeline: \
           adder:N | sub:N | lt:N | ltconst:N:K | eqconst:N:K | addeq:N | \
           mult:N. The specification is built structurally — no 2^N truth \
           table is ever materialized."
        ~docv:"SPEC")

let lut_k_arg =
  Arg.(
    value
    & opt int 4
    & info [ "lut-k" ]
        ~doc:
          "Cut size for the k-LUT covering of the XAG (2-6). Each LUT routes \
           through the NPN-indexed synthesis cache."
        ~docv:"K")

let ancilla_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ancilla-budget" ]
        ~doc:
          "Pebble the LUT schedule so peak ancilla usage never exceeds \
           $(docv) (extra compute/uncompute gates trade for space). Without \
           it every LUT keeps its own ancilla."
        ~docv:"B")

let run_oracle ~spec ~lut_k ~ancilla_budget ~draw ~qasm ~target () =
  let g = Core.Flow.xag_of_spec spec in
  Printf.printf "oracle %s: %d inputs, %d outputs, %d nodes (%d AND)\n" spec
    (Rev.Xag.num_inputs g)
    (List.length (Rev.Xag.outputs g))
    (Rev.Xag.num_nodes g) (Rev.Xag.num_ands g);
  let circuit, report = Core.Flow.compile_xag ~lut_k ?ancilla_budget g in
  Fmt.pr "%a@." Core.Flow.pp_report report;
  Printf.printf "LUT ancillae: %d%s\n"
    (Core.Flow.xag_ancillae g report)
    (match ancilla_budget with
    | Some b -> Printf.sprintf " (budget %d)" b
    | None -> " (no budget: one per LUT)");
  (* small oracles: verify the reversible layer exhaustively *)
  let n = Rev.Xag.num_inputs g in
  if n <= 8 then begin
    let rc =
      match ancilla_budget with
      | None -> Rev.Lut_synth.synth ~k:lut_k g
      | Some budget -> Rev.Lut_synth.synth_pebbled ~k:lut_k ~budget g
    in
    if Rev.Lut_synth.check rc (Rev.Xag.to_truth_tables g) then
      Printf.printf "oracle verified exhaustively over %d inputs\n" (1 lsl n)
    else begin
      Printf.eprintf "hidden-shift: oracle MISMATCH against its specification\n";
      exit 1
    end
  end;
  if draw then print_string (Qc.Draw.to_string circuit);
  if qasm then print_string (Qc.Qasm.to_string circuit);
  match target with
  | None -> ()
  | Some spec ->
      let backend = Qc.Backend.of_spec spec in
      print_endline (Qc.Backend.outcome_to_string (backend.Qc.Backend.run circuit))

let oracle_cmd =
  let go spec lut_k ancilla_budget jobs shard_bits cache_dir no_cache draw
      qasm target trace_out =
    with_session ~jobs ~shard_bits ~cache_dir ~no_cache ~trace_out
      (run_oracle ~spec ~lut_k ~ancilla_budget ~draw ~qasm ~target)
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Compile a wide arithmetic oracle through the scalable XAG pipeline \
          (structural graph, cut-based k-LUT covering, optional pebbled \
          ancilla schedule).")
    Term.(
      const go $ oracle_xag_arg $ lut_k_arg $ ancilla_budget_arg $ jobs_arg
      $ shard_bits_arg $ cache_dir_arg $ no_cache_arg $ draw $ qasm
      $ target_arg $ trace_out_arg)

let () =
  let doc = "Boolean hidden shift on the automatic quantum compilation flow." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "hidden-shift" ~doc)
          [ ip_cmd; mm_cmd; random_cmd; oracle_cmd ]))
