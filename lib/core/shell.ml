(** The RevKit-style command shell (paper Sec. VI, Eq. (5)).

    A tiny interpreter over a state holding the current specification
    (permutation or multi-output function), the current reversible circuit
    and the current quantum circuit. The command vocabulary mirrors the
    paper's example

      revgen hwb 4 ; tbs ; revsimp ; cliffordt ; tpar ; ps

    [bin/revkit] wraps this module as an interactive shell / script
    runner; keeping the interpreter in the library makes it testable. *)

module Perm = Logic.Perm
module Truth_table = Logic.Truth_table

type state = {
  perm : Perm.t option;
  func : Truth_table.t list option;
  xag : Rev.Xag.t option; (* the scalable oracle front end *)
  rev : Rev.Rcircuit.t option;
  qc : Qc.Circuit.t option;
  trace : Pass.trace option; (* instrumentation of the last [pipeline] run *)
  recorder : Obs.Memory.t; (* cross-layer telemetry of the whole session *)
  fault_profile : Device.profile; (* applied to devices created by [device run] *)
  device : Device.t option; (* the session's resilient device, if any *)
  device_spec : string option; (* the target spec the device was built from *)
  out : Buffer.t;
}

let init () =
  { perm = None; func = None; xag = None; rev = None; qc = None; trace = None;
    recorder = Obs.Memory.create (); fault_profile = Device.none; device = None;
    device_spec = None; out = Buffer.create 256 }

exception Error of string

let failf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let say st fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.out s;
      Buffer.add_char st.out '\n')
    fmt

let need_perm st = match st.perm with Some p -> p | None -> failf "no permutation loaded (use revgen/random_perm/perm)"
let need_func st = match st.func with Some f -> f | None -> failf "no function loaded (use expr/tt)"
let need_rev st = match st.rev with Some c -> c | None -> failf "no reversible circuit (use tbs/dbs/esop/hier)"
let need_xag st = match st.xag with Some g -> g | None -> failf "no XAG loaded (use xag)"
let need_qc st = match st.qc with Some c -> c | None -> failf "no quantum circuit (use cliffordt)"

let int_arg name = function
  | Some s -> (
      match int_of_string_opt s with Some i -> i | None -> failf "%s: expected integer, got %s" name s)
  | None -> failf "%s: missing argument" name

(* ------------------------------------------------------------------ *)
(* Extension commands                                                  *)
(* ------------------------------------------------------------------ *)

(* Higher layers (lib/corpus today) plug their own commands in without
   the core library depending on them: [register_command] installs a
   handler that gets the state and the argument words and returns the new
   state, exactly like a built-in. Built-ins win on a name clash; [help]
   and the unknown-command path consult the registry. *)
let extensions : (string, string * (state -> string list -> state)) Hashtbl.t =
  Hashtbl.create 8

(** [register_command name ~doc f] installs (or replaces) the extension
    command [name]. [doc] is the one-line help text. *)
let register_command name ~doc f = Hashtbl.replace extensions name (doc, f)

let extension_catalog () =
  List.sort compare
    (Hashtbl.fold (fun name (doc, _) acc -> (name, doc) :: acc) extensions [])

(* One command, given as argv-style words. Returns the new state. *)
let exec_cmd st words =
  match words with
  | [] -> st
  | cmd :: args -> (
      let arg i = List.nth_opt args i in
      match cmd with
      | "revgen" -> (
          let name = match arg 0 with Some n -> n | None -> failf "revgen: missing name" in
          let n = int_arg "revgen" (arg 1) in
          match Logic.Funcgen.named_reversible name with
          | Some gen ->
              let p = gen n in
              say st "loaded %s(%d): permutation on %d points" name n (Perm.size p);
              { st with perm = Some p }
          | None -> (
              match Logic.Funcgen.named_function name with
              | Some gen ->
                  say st "loaded %s(%d): single-output function" name n;
                  { st with func = Some [ gen n ] }
              | None -> failf "revgen: unknown generator %s" name))
      | "random_perm" ->
          let n = int_arg "random_perm" (arg 0) in
          let seed = match arg 1 with Some s -> int_arg "seed" (Some s) | None -> 42 in
          let p = Perm.random (Random.State.make [| seed |]) n in
          say st "loaded random permutation on %d variables (seed %d)" n seed;
          { st with perm = Some p }
      | "perm" ->
          (* literal permutation: perm 0 2 3 1 ... *)
          let points = List.map (fun s -> int_arg "perm" (Some s)) args in
          let p = Perm.of_array (Array.of_list points) in
          say st "loaded permutation on %d variables" (Perm.num_vars p);
          { st with perm = Some p }
      | "expr" ->
          let text = String.concat " " args in
          (match Logic.Bexpr.parse text with
          | e ->
              let tt = Logic.Bexpr.to_truth_table e in
              say st "loaded expression on %d variables" (Truth_table.num_vars tt);
              { st with func = Some [ tt ] }
          | exception Logic.Bexpr.Parse_error m -> failf "expr: %s" m)
      | "tt" ->
          let bits = match arg 0 with Some b -> b | None -> failf "tt: missing bits" in
          (match Truth_table.of_string bits with
          | tt ->
              say st "loaded truth table on %d variables" (Truth_table.num_vars tt);
              { st with func = Some [ tt ] }
          | exception Invalid_argument m -> failf "tt: %s" m)
      | "tbs" ->
          let p = need_perm st in
          let c = if args = [ "-b" ] then Rev.Tbs.basic p else Rev.Tbs.synth p in
          say st "tbs: %d gates" (Rev.Rcircuit.num_gates c);
          { st with rev = Some c }
      | "dbs" ->
          let c = Rev.Dbs.synth (need_perm st) in
          say st "dbs: %d gates" (Rev.Rcircuit.num_gates c);
          { st with rev = Some c }
      | "cycle" ->
          let c = Rev.Cycle_synth.synth (need_perm st) in
          say st "cycle: %d gates" (Rev.Rcircuit.num_gates c);
          { st with rev = Some c }
      | "exact" ->
          let p = need_perm st in
          if Perm.num_vars p > 3 then failf "exact: at most 3 variables";
          let c = Rev.Exact_synth.synth p in
          say st "exact: %d gates (provably minimal)" (Rev.Rcircuit.num_gates c);
          { st with rev = Some c }
      | "bdd" ->
          let c, layout = Rev.Bdd_synth.synth (need_func st) in
          say st "bdd: %d gates, %d ancillae" (Rev.Rcircuit.num_gates c)
            layout.Rev.Bdd_synth.ancillae;
          { st with rev = Some c }
      | "lut" ->
          let k = match arg 0 with Some s -> int_arg "lut" (Some s) | None -> 4 in
          let c, layout = Rev.Lut_synth.synth_tables ~k (need_func st) in
          say st "lut(k=%d): %d gates, %d ancillae" k (Rev.Rcircuit.num_gates c)
            layout.Rev.Lut_synth.ancillae;
          { st with rev = Some c }
      | "xag" -> (
          (* xag ltconst 16 1234 | xag adder 8 | xag expr a&b^c |
             xag stats | xag rewrite *)
          match args with
          | [ "stats" ] ->
              let g = need_xag st in
              say st "xag: %d inputs, %d outputs, %d nodes (%d AND)"
                (Rev.Xag.num_inputs g)
                (List.length (Rev.Xag.outputs g))
                (Rev.Xag.num_nodes g) (Rev.Xag.num_ands g);
              st
          | [ "rewrite" ] ->
              let g = need_xag st in
              let before = Rev.Xag.num_nodes g in
              let g' = Rev.Xag.rewrite g in
              say st "xag rewrite: %d -> %d nodes" before (Rev.Xag.num_nodes g');
              { st with xag = Some g' }
          | "expr" :: rest -> (
              let text = String.concat " " rest in
              match Logic.Bexpr.parse text with
              | e ->
                  let n = Logic.Bexpr.max_var e + 1 in
                  let g = Rev.Xag.of_bexpr n e in
                  say st "xag: expression on %d inputs, %d nodes" n
                    (Rev.Xag.num_nodes g);
                  { st with xag = Some g }
              | exception Logic.Bexpr.Parse_error m -> failf "xag expr: %s" m)
          | _ :: _ ->
              let g = Flow.xag_of_spec (String.concat ":" args) in
              say st "xag: %d inputs, %d outputs, %d nodes (%d AND)"
                (Rev.Xag.num_inputs g)
                (List.length (Rev.Xag.outputs g))
                (Rev.Xag.num_nodes g) (Rev.Xag.num_ands g);
              { st with xag = Some g }
          | [] ->
              failf
                "xag: expected a spec (adder <n> | sub <n> | lt <n> | ltconst <n> \
                 <k> | eqconst <n> <k> | addeq <n> | mult <n>), expr <e>, stats or \
                 rewrite")
      | "xagsynth" ->
          let g = need_xag st in
          let k = match arg 0 with Some s -> int_arg "xagsynth" (Some s) | None -> 4 in
          let budget = Option.map (fun s -> int_arg "xagsynth" (Some s)) (arg 1) in
          let c, layout =
            match budget with
            | None -> Rev.Lut_synth.synth ~k g
            | Some b -> (
                try Rev.Lut_synth.synth_pebbled ~k ~budget:b g
                with Rev.Pebble.Infeasible { budget; required } ->
                  failf "xagsynth: ancilla budget %d infeasible (needs >= %d)" budget
                    required)
          in
          say st "xagsynth(k=%d%s): %d gates, %d lines, %d ancillae" k
            (match budget with Some b -> Printf.sprintf ", budget=%d" b | None -> "")
            (Rev.Rcircuit.num_gates c) layout.Rev.Lut_synth.total_lines
            layout.Rev.Lut_synth.ancillae;
          { st with rev = Some c }
      | "adder" ->
          let n = int_arg "adder" (arg 0) in
          let c, _ = Rev.Arith.cuccaro_adder n in
          say st "loaded Cuccaro adder on %d-bit operands (%d lines, %d gates)" n
            (Rev.Rcircuit.num_lines c) (Rev.Rcircuit.num_gates c);
          { st with rev = Some c }
      | "route" ->
          let c = need_qc st in
          let r = Qc.Route.lnn c in
          say st "route: %d SWAPs inserted for the linear chain (%d -> %d gates)"
            r.Qc.Route.swaps_inserted (Qc.Circuit.num_gates c)
            (Qc.Circuit.num_gates r.Qc.Route.circuit);
          { st with qc = Some r.Qc.Route.circuit }
      | "stabsim" -> (
          match Qc.Sim.tableau (need_qc st) with
          | None -> failf "stabsim: circuit contains non-Clifford gates"
          | Some (outcome, det) ->
              say st "stabsim: measured %d (%s)" outcome
                (if det then "deterministic" else "one random branch");
              st)
      | "esop" ->
          let c = Rev.Esop_synth.synth (need_func st) in
          say st "esop: %d gates on %d lines" (Rev.Rcircuit.num_gates c) (Rev.Rcircuit.num_lines c);
          { st with rev = Some c }
      | "hier" ->
          let batch = Option.map (fun s -> int_arg "hier" (Some s)) (arg 0) in
          let c, layout = Rev.Hier_synth.synth_tables ?batch (need_func st) in
          say st "hier: %d gates, %d ancillae" (Rev.Rcircuit.num_gates c)
            layout.Rev.Hier_synth.ancillae;
          { st with rev = Some c }
      | "embed" ->
          let fs = need_func st in
          let e = Rev.Embed.embed fs in
          say st "embed: %d -> %d lines (mu = %d)" (Truth_table.num_vars (List.hd fs))
            e.Rev.Embed.r
            (Rev.Embed.output_multiplicity fs);
          { st with perm = Some e.Rev.Embed.perm }
      | "revsimp" ->
          let c = need_rev st in
          let c' = Rev.Rsimp.simplify c in
          say st "revsimp: %d -> %d gates" (Rev.Rcircuit.num_gates c) (Rev.Rcircuit.num_gates c');
          { st with rev = Some c' }
      | "resynth" ->
          let c = need_rev st in
          let c' = Rev.Resynth.optimize c in
          say st "resynth: %d -> %d gates" (Rev.Rcircuit.num_gates c) (Rev.Rcircuit.num_gates c');
          { st with rev = Some c' }
      | "cliffordt" ->
          let rc = need_rev st in
          let options =
            { Qc.Clifford_t.default_options with rccx_ladder = args <> [ "--no-rccx" ] }
          in
          let c, anc = Qc.Clifford_t.compile_rcircuit ~options rc in
          say st "cliffordt: %d gates, T-count %d, %d ancillae" (Qc.Circuit.num_gates c)
            (Qc.Circuit.t_count c) anc;
          { st with qc = Some c }
      | "tpar" ->
          let c = need_qc st in
          let c', rep = Qc.Tpar.optimize_report c in
          say st "tpar: T-count %d -> %d, T-depth %d -> %d" rep.Qc.Tpar.t_before
            rep.Qc.Tpar.t_after rep.Qc.Tpar.t_depth_before rep.Qc.Tpar.t_depth_after;
          { st with qc = Some c' }
      | "peephole" ->
          let c = need_qc st in
          let c' = Qc.Opt.simplify c in
          say st "peephole: %d -> %d gates" (Qc.Circuit.num_gates c) (Qc.Circuit.num_gates c');
          { st with qc = Some c' }
      | "pipeline" ->
          (* pass-manager pipeline on the current reversible circuit, e.g.
             [pipeline revsimp,cliffordt,tpar,peephole] (commas, because
             ';' separates shell commands) *)
          let rc = need_rev st in
          let spec = String.concat " " args in
          if String.trim spec = "" then
            failf "pipeline: missing spec (e.g. pipeline revsimp,cliffordt,tpar)";
          let pipeline = Pass.parse spec in
          let res = Pass.run pipeline rc in
          List.iter
            (fun (e : Pass.entry) ->
              say st "%s: gates %d -> %d (%.2fms)%s" e.Pass.pass_name
                (Pass.snapshot_gates e.Pass.before) (Pass.snapshot_gates e.Pass.after)
                (e.Pass.elapsed *. 1000.)
                (match e.Pass.detail with
                | None -> ""
                | Some d -> Fmt.str " [%a]" Pass.pp_detail d))
            res.Pass.trace;
          say st "pipeline: %d passes, %d ancillae, %.2fms total"
            (List.length res.Pass.trace) res.Pass.ancillae
            (Pass.total_elapsed res.Pass.trace *. 1000.);
          { st with rev = Some res.Pass.rev; qc = Some res.Pass.circuit;
            trace = Some res.Pass.trace }
      | "passes" ->
          List.iter (fun (name, doc) -> say st "%-12s %s" name doc) (Pass.catalog ());
          st
      | "trace" -> (
          match arg 0 with
          | Some "export" ->
              (* telemetry stream of the whole session, format by extension:
                 .jsonl event log | .json Chrome trace | anything else table *)
              let file =
                match arg 1 with
                | Some f -> f
                | None -> failf "trace export: missing file"
              in
              let events = Obs.Memory.events st.recorder in
              if events = [] then failf "trace export: no telemetry recorded yet";
              Obs.Export.write_file file events;
              say st "wrote %d events to %s" (List.length events) file;
              st
          | Some other -> failf "trace: unknown subcommand %s (try: trace export <file>)" other
          | None -> (
              match st.trace with
              | Some trace -> say st "%s" (Pass.trace_to_string trace); st
              | None -> failf "trace: no pipeline has run yet (use pipeline)"))
      | "stats" ->
          (* cross-layer telemetry summary: counters and histograms of
             everything executed in this session *)
          let events = Obs.Memory.events st.recorder in
          let counters = Obs.Summary.counter_totals events in
          let hists = Obs.Summary.histogram_stats events in
          let spans = Obs.Summary.span_totals events in
          if counters = [] && hists = [] && spans = [] then
            say st "no telemetry recorded yet"
          else begin
            List.iter
              (fun (name, (dur, k)) ->
                say st "span     %-36s %4dx %10.2fms" name k (dur /. 1e3))
              spans;
            List.iter (fun (name, total) -> say st "counter  %-36s %12d" name total) counters;
            List.iter
              (fun (name, (s : Obs.Summary.hist_stats)) ->
                say st "hist     %-36s n=%d mean=%.2f p50=%.1f p95=%.1f p99=%.1f max=%.1f"
                  name s.Obs.Summary.n s.Obs.Summary.mean s.Obs.Summary.p50
                  s.Obs.Summary.p95 s.Obs.Summary.p99 s.Obs.Summary.max)
              hists
          end;
          let size, cap, evictions = Qc.Statevector.plan_cache_stats () in
          say st "plan cache: %d/%d entries, %d evictions (capacity via DAUTOQ_PLAN_CACHE)"
            size cap evictions;
          st
      | "run" ->
          let c = need_qc st in
          let spec = match arg 0 with Some s -> s | None -> failf "run: missing target" in
          let backend = Qc.Backend.of_spec spec in
          say st "%s" (Qc.Backend.outcome_to_string (backend.Qc.Backend.run c));
          st
      | "backends" ->
          List.iter (fun (name, doc) -> say st "%-18s %s" name doc) (Qc.Backend.catalog ());
          st
      | "device" -> (
          (* the resilient device layer: [device] / [device stats] reports
             the profile, breaker and fault tallies; [device profile
             <spec>] sets the fault profile for subsequent runs; [device
             breaker] shows the state machine; [device run <target>
             [shots]] executes the current circuit through a device *)
          match arg 0 with
          | None | Some "stats" ->
              say st "profile: %s" (Fmt.str "%a" Device.pp_profile st.fault_profile);
              (match st.device with
              | None -> say st "no device yet (use device run <target> [shots])"
              | Some d -> List.iter (fun l -> say st "%s" l) (Device.stats_lines d));
              st
          | Some "profile" -> (
              match arg 1 with
              | None ->
                  say st "profile: %s" (Fmt.str "%a" Device.pp_profile st.fault_profile);
                  st
              | Some spec ->
                  let p = Device.profile_of_spec spec in
                  say st "fault profile set to %s" p.Device.label;
                  (* drop the device so the new profile takes effect *)
                  { st with fault_profile = p; device = None; device_spec = None })
          | Some "breaker" -> (
              match st.device with
              | None -> failf "device breaker: no device yet (use device run)"
              | Some d ->
                  say st "breaker: %s" (Device.breaker_to_string d);
                  st)
          | Some "run" ->
              let c = need_qc st in
              let target =
                match arg 1 with
                | Some t -> t
                | None -> failf "device run: missing target (e.g. device run noisy)"
              in
              let shots = Option.map (fun s -> int_arg "shots" (Some s)) (arg 2) in
              let d =
                match st.device with
                | Some d when st.device_spec = Some target -> d
                | _ -> Device.of_spec ~profile:st.fault_profile target
              in
              let job = Device.submit ?shots d c in
              say st "%s" (Qc.Backend.outcome_to_string (Device.outcome_of_job job));
              say st "%s" (Device.job_summary job);
              { st with device = Some d; device_spec = Some target }
          | Some other ->
              failf
                "device: unknown subcommand %s (try: device [stats|profile \
                 <spec>|breaker|run <target> [shots]])"
                other)
      | "jobs" -> (
          (* the multicore knob: [jobs] prints the pool width, [jobs N]
             pins it (the statevector kernels and noisy shots use it) *)
          match arg 0 with
          | None ->
              say st "jobs: %d (recommended for this machine: %d)" (Par.default_jobs ())
                (Par.recommended ());
              st
          | Some v ->
              let n = int_arg "jobs" (Some v) in
              if n < 1 then failf "jobs: expected a positive worker count, got %d" n;
              Par.set_default_jobs n;
              say st "jobs set to %d" (Par.default_jobs ());
              st)
      | "cache" -> (
          (* the compilation cache: [cache] / [cache stats] reports per
             store, [cache clear] empties it, [cache on|off] toggles
             memoization, [cache dir <path>] attaches persistence *)
          match arg 0 with
          | None | Some "stats" ->
              say st "cache: %s%s" (if Cache.enabled () then "on" else "off")
                (match Cache.dir () with
                | Some d -> Printf.sprintf ", dir %s" d
                | None -> ", in-memory only");
              List.iter
                (fun (r : Cache.stats_row) ->
                  say st "  %-16s hits %5d  misses %5d  entries %5d" r.Cache.store
                    r.Cache.hits r.Cache.misses r.Cache.entries)
                (Cache.stats ());
              say st "  persisted: %dB" (Cache.bytes_persisted ());
              st
          | Some "clear" ->
              Cache.clear ();
              say st "cache cleared";
              st
          | Some "on" ->
              Cache.set_enabled true;
              say st "cache on";
              st
          | Some "off" ->
              Cache.set_enabled false;
              say st "cache off";
              st
          | Some "dir" -> (
              match arg 1 with
              | Some d ->
                  Cache.set_dir (Some d);
                  say st "cache dir %s" d;
                  st
              | None -> failf "cache dir: missing path")
          | Some other -> failf "cache: unknown subcommand %s" other)
      | "ps" ->
          (match st.rev with
          | Some c -> say st "reversible: %s" (Fmt.str "%a" Rev.Rcircuit.pp_stats (Rev.Rcircuit.stats c))
          | None -> ());
          (match st.qc with
          | Some c -> say st "quantum: %s" (Qc.Resource.to_string (Qc.Resource.count c))
          | None -> ());
          if st.rev = None && st.qc = None then say st "nothing to print";
          st
      | "print_rev" ->
          say st "%s" (Fmt.str "%a" Rev.Rcircuit.pp (need_rev st));
          st
      | "draw" ->
          say st "%s" (Qc.Draw.to_string (need_qc st));
          st
      | "write_qasm" ->
          let text = Qc.Qasm.to_string ~measure:false (need_qc st) in
          (match arg 0 with
          | Some file when file <> "-" ->
              let oc = open_out file in
              output_string oc text;
              close_out oc;
              say st "wrote %s" file
          | _ -> say st "%s" text);
          st
      | "qsharp" ->
          let name = Option.value ~default:"GeneratedOracle" (arg 0) in
          say st "%s" (Qc.Qsharp_gen.operation ~name (need_qc st));
          st
      | "simulate" ->
          let x = int_arg "simulate" (arg 0) in
          let c = need_rev st in
          say st "f(%d) = %d" x (Rev.Rsim.run c x);
          st
      | "verify" ->
          let p = need_perm st in
          (match st.qc with
          | Some c ->
              if Qc.Circuit.num_qubits c > 12 then failf "verify: circuit too wide"
              else if Flow.verify_perm p c then say st "verify: quantum circuit OK"
              else failf "verify: quantum circuit does NOT realize the permutation"
          | None ->
              let c = need_rev st in
              if Rev.Rsim.realizes c p then say st "verify: reversible circuit OK"
              else failf "verify: reversible circuit does NOT realize the permutation");
          st
      | "help" ->
          say st
            "commands: revgen <name> <n> | random_perm <n> [seed] | perm <pts…> | expr <e> | tt <bits> | adder <n> |\n\
            \  xag <spec|expr <e>|stats|rewrite> | xagsynth [k] [budget] |\n\
            \  tbs [-b] | dbs | cycle | exact | esop | hier [batch] | bdd | lut [k] | embed | revsimp | resynth |\n\
            \  cliffordt [--no-rccx] | tpar | peephole | route |\n\
            \  pipeline <p1,p2,…> | passes | trace | trace export <file> | stats | run <target> | backends | jobs [n] |\n\
            \  cache [stats|clear|on|off|dir <path>] | device [stats|profile <spec>|breaker|run <target> [shots]] |\n\
            \  ps | print_rev | draw | write_qasm [file] | qsharp [name] |\n\
            \  simulate <x> | stabsim | verify | help";
          List.iter
            (fun (name, doc) -> say st "extension: %-8s %s" name doc)
            (extension_catalog ());
          st
      | other -> (
          match Hashtbl.find_opt extensions other with
          | Some (_doc, f) -> f st args
          | None -> failf "unknown command %s (try help)" other))

(* Every failure surfaces as [Error] with the offending command named —
   no silent drops, no bare exceptions escaping to the REPL. Each command
   executes with the session's telemetry recorder installed as the global
   sink (restored afterwards), so [stats] / [trace export] see everything
   the session did. *)
let exec st words =
  match words with
  | [] -> st
  | cmd :: _ ->
      let saved = Obs.sink () in
      Obs.set_sink (Some (Obs.Memory.sink st.recorder));
      Fun.protect
        ~finally:(fun () -> Obs.set_sink saved)
        (fun () ->
          try exec_cmd st words with
          | Error _ as e -> raise e
          | Invalid_argument msg | Failure msg -> failf "%s: %s" cmd msg
          | Pass.Spec_error msg | Qc.Backend.Unsupported msg
          | Device.Bad_profile msg ->
              failf "%s: %s" cmd msg
          | Not_found -> failf "%s: internal lookup failed" cmd)

(** [run_line st line] splits on [';'] and executes each command; output
    accumulates in [st.out]. *)
let run_line st line =
  List.fold_left
    (fun st chunk ->
      let words =
        String.split_on_char ' ' (String.trim chunk) |> List.filter (fun w -> w <> "")
      in
      exec st words)
    st
    (String.split_on_char ';' line)

(** [run_script text] executes a whole script (newlines and semicolons both
    separate commands) and returns the accumulated output. *)
let run_script text =
  let st =
    List.fold_left
      (fun st line -> run_line st line)
      (init ())
      (String.split_on_char '\n' text)
  in
  Buffer.contents st.out

(** [output st] drains the accumulated output. *)
let output st =
  let s = Buffer.contents st.out in
  Buffer.clear st.out;
  s
