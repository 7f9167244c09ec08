(** The regression-guarded workload corpus (MQT-Bench-style).

    A {e corpus} is a list of parameterized circuit-family instances —
    [ghz:16], [qft:8], [grover:5:3], [hwb:6] … — that every performance
    or correctness claim in this repository is measured against. Each
    entry is generated, lowered to the Clifford+T/OpenQASM subset,
    optimized (T-par + peephole), gated through {!Qc.Equiv} against its
    own unoptimized form, and (at small widths) executed on the
    statevector and noisy backends. The result is one {!record} of
    metrics per entry — gate counts split 1q/2q, T-count and depths via
    {!Qc.Resource}, ancillae, compile wall-clock, cache hit/miss from the
    labeled [cache.*] Obs counters, fidelity and total-variation
    distance — plus corpus-wide p50/p95/p99 rollups computed with
    {!Obs.Summary.stats_of_samples}.

    Snapshots persist as a versioned JSON section (standalone file or a
    ["corpus"] member of a historical BENCH_pr*.json report); {!Diff}
    compares two snapshots metric-by-metric under configurable
    thresholds, which is what [qasm_tool corpus diff
    --fail-on-regression] gates on.

    Every generator emits through {!Qc.Qasm.to_string} and re-imports
    with {!Qc.Qasm.parse}; the round-trip is property-tested to be
    {!Qc.Equiv}-equivalent, so external toolchains see the same corpus we
    measure. *)

module Truth_table = Logic.Truth_table
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Families and the entry grammar                                      *)
(* ------------------------------------------------------------------ *)

type family =
  | Dj (* Deutsch–Jozsa, balanced parity-on-a-mask oracle *)
  | Bv (* Bernstein–Vazirani, hidden string from the seed *)
  | Ghz (* GHZ state preparation: H + CNOT chain *)
  | Qft (* quantum Fourier transform *)
  | Qpe (* phase estimation, [size] counting qubits *)
  | Grover (* search for a seed-chosen marked element *)
  | Adder (* XAG ripple adder through the LUT flow *)
  | Cmp (* XAG unsigned comparator through the LUT flow *)
  | Hwb (* hidden-weighted-bit via TBS reversible synthesis *)
  | Cliffordt (* seeded random Clifford+T circuit *)

type entry = { family : family; size : int; seed : int }

exception Bad_spec of string

let specfail fmt = Printf.ksprintf (fun m -> raise (Bad_spec m)) fmt

let family_name = function
  | Dj -> "dj"
  | Bv -> "bv"
  | Ghz -> "ghz"
  | Qft -> "qft"
  | Qpe -> "qpe"
  | Grover -> "grover"
  | Adder -> "adder"
  | Cmp -> "cmp"
  | Hwb -> "hwb"
  | Cliffordt -> "cliffordt"

let family_of_name = function
  | "dj" -> Dj
  | "bv" -> Bv
  | "ghz" -> Ghz
  | "qft" -> Qft
  | "qpe" -> Qpe
  | "grover" -> Grover
  | "adder" -> Adder
  | "cmp" -> Cmp
  | "hwb" -> Hwb
  | "cliffordt" -> Cliffordt
  | other -> specfail "unknown corpus family %s" other

(** The family catalog: [(name, what the size parameter means)]. *)
let families =
  [ ("dj", "Deutsch-Jozsa on <size> inputs (balanced oracle from seed)");
    ("bv", "Bernstein-Vazirani on <size> inputs (hidden string from seed)");
    ("ghz", "GHZ state preparation on <size> qubits");
    ("qft", "quantum Fourier transform on <size> qubits");
    ("qpe", "phase estimation with <size> counting qubits");
    ("grover", "Grover search on <size> inputs (marked element from seed)");
    ("adder", "<size>-bit XAG ripple adder through the LUT flow");
    ("cmp", "<size>-bit XAG unsigned comparator through the LUT flow");
    ("hwb", "hidden-weighted-bit on <size> variables via TBS synthesis");
    ("cliffordt", "random Clifford+T circuit on <size> qubits (from seed)") ]

let entry_name e =
  if e.seed = 0 then Printf.sprintf "%s:%d" (family_name e.family) e.size
  else Printf.sprintf "%s:%d:%d" (family_name e.family) e.size e.seed

(** [parse_entry s] reads the [family:size[:seed]] grammar; raises
    {!Bad_spec} naming the offending token. *)
let parse_entry s =
  let int v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> specfail "corpus entry %s: expected an integer, got %s" s v
  in
  match String.split_on_char ':' (String.trim s) with
  | [ fam; size ] -> { family = family_of_name fam; size = int size; seed = 0 }
  | [ fam; size; seed ] ->
      { family = family_of_name fam; size = int size; seed = int seed }
  | _ -> specfail "corpus entry %s: expected family:size[:seed]" s

let parse_entries specs = List.map parse_entry specs

(** The default manifest: every family at two representative sizes —
    small enough that a full run with simulation gating finishes in
    seconds, wide enough to exercise the ancilla-allocating paths. *)
let default_manifest =
  parse_entries
    [ "dj:4"; "dj:6"; "bv:5:19"; "bv:7:85"; "ghz:8"; "ghz:16"; "qft:5"; "qft:8";
      "qpe:6"; "grover:4:5"; "grover:6:23"; "adder:4"; "cmp:8"; "hwb:4"; "hwb:6";
      "cliffordt:6:1"; "cliffordt:10:2" ]

(** The smoke slice: one entry per fast family, used by the runtest
    guard (generation + gating in well under a second). *)
let smoke_manifest =
  parse_entries [ "dj:4"; "bv:4:5"; "ghz:4"; "qft:4"; "grover:3:2"; "hwb:4";
                  "cliffordt:4:1" ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* splitmix-style mixing so seeds 0/1/2 still give unrelated parameters *)
let mix seed salt =
  let z = (seed * 0x9E3779B9) + (salt * 0x85EBCA6B) in
  let z = (z lxor (z lsr 15)) * 0x27D4EB2F land 0x3FFFFFFF in
  z lxor (z lsr 13)

(* the pass pipeline the builders use: Clifford+T lowering only, so the
   corpus' own optimize stage (T-par + peephole) has the raw material the
   regression metrics are about *)
let lower_only_pipeline () = Core.Pass.of_passes [ Core.Pass.find "cliffordt" ]

(** [build e] generates the raw circuit of an entry plus the ancilla
    count its construction already committed to (flow-synthesized
    families allocate ancillae before the corpus' own lowering stage
    adds more). High-level gates (Mcz…) may still be present. *)
let build e =
  let n = e.size in
  if n < 1 then specfail "corpus entry %s: size must be >= 1" (entry_name e);
  match e.family with
  | Dj ->
      (* balanced promise: parity over a nonzero seed-chosen mask *)
      let mask = 1 + (mix e.seed 1 mod ((1 lsl n) - 1)) in
      let f =
        Truth_table.of_fun n (fun x -> Logic.Bitops.parity (x land mask) = 1)
      in
      (Core.Oracle_algorithms.dj_circuit f, 0)
  | Bv ->
      let a = mix e.seed 2 mod (1 lsl n) in
      (Core.Oracle_algorithms.bv_circuit ~n ~a ~b:(mix e.seed 3 land 1 = 1), 0)
  | Ghz ->
      ( Qc.Circuit.of_gates n
          (Qc.Gate.H 0 :: List.init (n - 1) (fun i -> Qc.Gate.Cnot (i, i + 1))),
        0 )
  | Qft -> (Qc.Qft.qft n, 0)
  | Qpe ->
      let phi =
        if e.seed = 0 then 0.3141
        else float_of_int (1 + (mix e.seed 4 mod 997)) /. 998.
      in
      (Qc.Qpe.circuit ~t:n ~phi, 0)
  | Grover ->
      let marked = mix e.seed 5 mod (1 lsl n) in
      let tt = Truth_table.of_fun n (fun x -> x = marked) in
      (Core.Grover.circuit tt, 0)
  | Adder ->
      let g = Rev.Arith.xag_adder n in
      let c, report =
        Core.Flow.compile_xag ~pipeline:(lower_only_pipeline ()) ~lut_k:4 g
      in
      (c, report.Core.Flow.ancillae + Core.Flow.xag_ancillae g report)
  | Cmp ->
      let g = Rev.Arith.xag_less_than n in
      let c, report =
        Core.Flow.compile_xag ~pipeline:(lower_only_pipeline ()) ~lut_k:4 g
      in
      (c, report.Core.Flow.ancillae + Core.Flow.xag_ancillae g report)
  | Hwb ->
      let c, report =
        Core.Flow.compile_perm ~pipeline:(lower_only_pipeline ())
          (Logic.Funcgen.hwb n)
      in
      (c, report.Core.Flow.ancillae)
  | Cliffordt ->
      let st = Random.State.make [| 0xC0B9; e.seed; n |] in
      let gate () =
        let q () = Random.State.int st n in
        let q2 () =
          let a = q () in
          let b = (a + 1 + Random.State.int st (n - 1)) mod n in
          (a, b)
        in
        match Random.State.int st 8 with
        | 0 -> Qc.Gate.H (q ())
        | 1 -> Qc.Gate.S (q ())
        | 2 -> Qc.Gate.T (q ())
        | 3 -> Qc.Gate.Tdg (q ())
        | 4 -> Qc.Gate.X (q ())
        | 5 -> Qc.Gate.Z (q ())
        | 6 ->
            let a, b = q2 () in
            Qc.Gate.Cnot (a, b)
        | _ ->
            let a, b = q2 () in
            Qc.Gate.Cz (a, b)
      in
      if n = 1 then
        ( Qc.Circuit.of_gates 1
            (List.init (8 * n) (fun _ ->
                 match Random.State.int st 4 with
                 | 0 -> Qc.Gate.H 0
                 | 1 -> Qc.Gate.S 0
                 | 2 -> Qc.Gate.T 0
                 | _ -> Qc.Gate.Z 0)),
          0 )
      else (Qc.Circuit.of_gates n (List.init (8 * n) (fun _ -> gate ())), 0)

(* ------------------------------------------------------------------ *)
(* Per-entry metric records                                            *)
(* ------------------------------------------------------------------ *)

type record = {
  name : string;
  family : string;
  size : int;
  seed : int;
  qubits : int;
  gates : int;
  gates_1q : int;
  gates_2q : int;
  t_count : int;
  depth : int;
  t_depth : int;
  ancillae : int;
  compile_us : float; (* 0 when the run suppresses timings *)
  cache_hits : int;
  cache_misses : int;
  equiv : string; (* equivalent | equivalent-randomized | NOT-equivalent | skipped *)
  fidelity : float option; (* |<raw|optimized>|^2 at small widths *)
  tvd : float option; (* noisy counts vs ideal distribution at small widths *)
}

(** Execution-gating knobs of one corpus run. [timings = false] zeroes
    the wall-clock field so records are byte-reproducible across
    processes (the smoke guard's contract). *)
type config = {
  timings : bool;
  equiv_cap : int; (* widest circuit Qc.Equiv gating still runs on *)
  sim_cap : int; (* widest circuit the fidelity check simulates *)
  noisy_cap : int; (* widest circuit the noisy TVD check samples *)
  shots : int;
}

let default_config =
  { timings = true; equiv_cap = 12; sim_cap = 10; noisy_cap = 8; shots = 1024 }

let verdict_string = function
  | Qc.Equiv.Equivalent -> "equivalent"
  | Qc.Equiv.Probably_equivalent _ -> "equivalent-randomized"
  | Qc.Equiv.Not_equivalent -> "NOT-equivalent"

let fidelity a b =
  let sz = Qc.Statevector.size a in
  let dr = ref 0. and di = ref 0. in
  for x = 0 to sz - 1 do
    let av = Qc.Statevector.amplitude a x and bv = Qc.Statevector.amplitude b x in
    dr := !dr +. (av.Complex.re *. bv.Complex.re) +. (av.Complex.im *. bv.Complex.im);
    di := !di +. (av.Complex.re *. bv.Complex.im) -. (av.Complex.im *. bv.Complex.re)
  done;
  (!dr *. !dr) +. (!di *. !di)

let total_variation counts probs ~shots =
  let acc = ref 0. in
  Array.iteri
    (fun x p ->
      let freq = float_of_int (Qc.Noise.count counts x) /. float_of_int shots in
      acc := !acc +. Float.abs (freq -. p))
    probs;
  0.5 *. !acc

(* cache.<group>.{hit,miss} counter deltas inside an event slice *)
let cache_tallies events =
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (function
      | Obs.Counter { name; delta; _ }
        when String.length name > 6 && String.sub name 0 6 = "cache." ->
          if Filename.check_suffix name ".hit" then hits := !hits + delta
          else if Filename.check_suffix name ".miss" then misses := !misses + delta
      | _ -> ())
    events;
  (!hits, !misses)

(** [run_entry ?config e] takes one entry through the whole proving
    ground: generate → Clifford+T lowering → T-par + peephole →
    equivalence gate → (small widths) statevector fidelity and noisy
    total-variation distance. Metrics are recorded under a tee sink, so
    an installed recorder (the shell session, a CLI [--trace-out]) sees
    the labeled [corpus.*] spans, counters and samples too. *)
let run_entry ?(config = default_config) e =
  let name = entry_name e in
  (* tee: capture this entry's events without stealing them from an
     installed sink *)
  let m = Obs.Memory.create () in
  let mem_sink = Obs.Memory.sink m in
  let prev = Obs.sink () in
  let tee =
    match prev with
    | None -> mem_sink
    | Some s ->
        { Obs.emit =
            (fun ev ->
              s.Obs.emit ev;
              mem_sink.Obs.emit ev) }
  in
  Obs.set_sink (Some tee);
  Fun.protect ~finally:(fun () -> Obs.set_sink prev) @@ fun () ->
  Obs.with_span "corpus.entry" @@ fun () ->
  Obs.add_attrs [ ("entry", Obs.Str name) ];
  let t0 = Unix.gettimeofday () in
  let raw, built_anc = Obs.with_span "corpus.generate" (fun () -> build e) in
  let lowered, lower_anc =
    Obs.with_span "corpus.lower" (fun () -> Qc.Clifford_t.compile raw)
  in
  let optimized =
    Obs.with_span "corpus.optimize" (fun () ->
        Qc.Opt.simplify (Qc.Tpar.optimize lowered))
  in
  let compile_us =
    if config.timings then (Unix.gettimeofday () -. t0) *. 1e6 else 0.
  in
  let qubits = Qc.Circuit.num_qubits optimized in
  let raw_widened = Qc.Circuit.widen raw qubits in
  let data_qubits = Qc.Circuit.num_qubits raw in
  let equiv =
    if qubits <= config.equiv_cap then
      Obs.with_span "corpus.equiv" (fun () ->
          let verdict =
            if qubits = data_qubits then Qc.Equiv.check raw_widened optimized
            else
              (* ancilla-allocating lowerings (RCCX ladders) are only
                 equivalences on the ancilla-|0⟩ subspace, so the
                 full-unitary checkers would reject correct circuits *)
              Qc.Equiv.randomized_zero_ancilla ~data:data_qubits raw_widened
                optimized
          in
          verdict_string verdict)
    else "skipped"
  in
  let fid =
    if qubits <= config.sim_cap then
      Obs.with_span "corpus.fidelity" (fun () ->
          Some
            (fidelity
               (Qc.Statevector.run raw_widened)
               (Qc.Statevector.run optimized)))
    else None
  in
  let tvd =
    if qubits <= config.noisy_cap then
      Obs.with_span "corpus.noisy" (fun () ->
          let counts =
            Qc.Noise.run_shots ~seed:0xC0FFEE ~jobs:1 Qc.Noise.ibm_qx2017 optimized
              ~shots:config.shots
          in
          let probs = Qc.Statevector.probabilities (Qc.Statevector.run optimized) in
          Some (total_variation counts probs ~shots:config.shots))
    else None
  in
  let res = Qc.Resource.count optimized in
  let g1 = ref 0 and g2 = ref 0 in
  Qc.Circuit.iter
    (fun g ->
      match List.length (Qc.Gate.qubits g) with
      | 1 -> incr g1
      | 2 -> incr g2
      | _ -> ())
    optimized;
  let cache_hits, cache_misses = cache_tallies (Obs.Memory.events m) in
  let r =
    { name;
      family = family_name e.family;
      size = e.size;
      seed = e.seed;
      qubits;
      gates = res.Qc.Resource.total_gates;
      gates_1q = !g1;
      gates_2q = !g2;
      t_count = res.Qc.Resource.t_count;
      depth = res.Qc.Resource.depth;
      t_depth = res.Qc.Resource.t_depth;
      ancillae = built_anc + lower_anc;
      compile_us;
      cache_hits;
      cache_misses;
      equiv;
      fidelity = fid;
      tvd }
  in
  (* labeled samples: the rollups any surrounding recorder reports come
     from these, with the same names the snapshot rollups use *)
  Obs.count "corpus.entries";
  Obs.observe "corpus.t_count" (float_of_int r.t_count);
  Obs.observe "corpus.depth" (float_of_int r.depth);
  Obs.observe "corpus.gates_2q" (float_of_int r.gates_2q);
  if config.timings then Obs.observe "corpus.compile_us" r.compile_us;
  if r.equiv = "NOT-equivalent" then Obs.count "corpus.equiv.fail";
  (r, optimized)

(** [run ?config entries] runs the corpus in manifest order, returning
    the records (circuits are dropped — the snapshot is the product). *)
let run ?config entries = List.map (fun e -> fst (run_entry ?config e)) entries

(** [to_qasm e] emits the entry's lowered circuit as OpenQASM 2.0 (the
    interchange form; re-importing with {!Qc.Qasm.parse} round-trips to
    an equivalent circuit). *)
let to_qasm e =
  let raw, _ = build e in
  let lowered, _ = Qc.Clifford_t.compile raw in
  Qc.Qasm.to_string ~measure:false lowered

(* ------------------------------------------------------------------ *)
(* Snapshots: versioned JSON persistence                               *)
(* ------------------------------------------------------------------ *)

let snapshot_version = 1

type snapshot = { version : int; entries : record list }

let snapshot entries = { version = snapshot_version; entries }

let opt_num = function None -> Json.Null | Some f -> Json.Num f

let json_of_record r =
  Json.Obj
    [ ("name", Json.String r.name); ("family", Json.String r.family);
      ("size", Json.Num (float_of_int r.size));
      ("seed", Json.Num (float_of_int r.seed));
      ("qubits", Json.Num (float_of_int r.qubits));
      ("gates", Json.Num (float_of_int r.gates));
      ("gates_1q", Json.Num (float_of_int r.gates_1q));
      ("gates_2q", Json.Num (float_of_int r.gates_2q));
      ("t_count", Json.Num (float_of_int r.t_count));
      ("depth", Json.Num (float_of_int r.depth));
      ("t_depth", Json.Num (float_of_int r.t_depth));
      ("ancillae", Json.Num (float_of_int r.ancillae));
      ("compile_us", Json.Num r.compile_us);
      ("cache_hits", Json.Num (float_of_int r.cache_hits));
      ("cache_misses", Json.Num (float_of_int r.cache_misses));
      ("equiv", Json.String r.equiv); ("fidelity", opt_num r.fidelity);
      ("tvd", opt_num r.tvd) ]

(* the numeric per-entry metrics the rollups and the diff both iterate *)
let metric_of_record r = function
  | "gates" -> Some (float_of_int r.gates)
  | "gates_1q" -> Some (float_of_int r.gates_1q)
  | "gates_2q" -> Some (float_of_int r.gates_2q)
  | "t_count" -> Some (float_of_int r.t_count)
  | "depth" -> Some (float_of_int r.depth)
  | "t_depth" -> Some (float_of_int r.t_depth)
  | "qubits" -> Some (float_of_int r.qubits)
  | "ancillae" -> Some (float_of_int r.ancillae)
  | "compile_us" -> Some r.compile_us
  | "fidelity" -> r.fidelity
  | "tvd" -> r.tvd
  | _ -> None

let rollup_metrics =
  [ "gates"; "gates_1q"; "gates_2q"; "t_count"; "depth"; "t_depth"; "ancillae";
    "compile_us"; "fidelity"; "tvd" ]

(** [rollups s] summarizes every numeric metric across the snapshot's
    entries as count/min/max/mean/p50/p95/p99 ({!Obs.Summary} stats). *)
let rollups s =
  List.filter_map
    (fun metric ->
      match List.filter_map (fun r -> metric_of_record r metric) s.entries with
      | [] -> None
      | samples -> Some (metric, Obs.Summary.stats_of_samples samples))
    rollup_metrics

let snapshot_to_json s =
  Json.Obj
    [ ("version", Json.Num (float_of_int s.version));
      ("entries", Json.Arr (List.map json_of_record s.entries));
      ("rollups",
       Json.Obj
         (List.map
            (fun (m, stats) -> (m, Obs.Export.json_of_hist_stats stats))
            (rollups s))) ]

exception Bad_snapshot of string

let snapfail fmt = Printf.ksprintf (fun m -> raise (Bad_snapshot m)) fmt

let jnum j k =
  match Json.member k j with
  | Some (Json.Num f) -> f
  | _ -> snapfail "corpus record: missing numeric field %S" k

let jstr j k =
  match Json.member k j with
  | Some (Json.String s) -> s
  | _ -> snapfail "corpus record: missing string field %S" k

let jopt j k =
  match Json.member k j with
  | Some (Json.Num f) -> Some f
  | Some Json.Null | None -> None
  | _ -> snapfail "corpus record: field %S must be number or null" k

let record_of_json j =
  { name = jstr j "name";
    family = jstr j "family";
    size = int_of_float (jnum j "size");
    seed = int_of_float (jnum j "seed");
    qubits = int_of_float (jnum j "qubits");
    gates = int_of_float (jnum j "gates");
    gates_1q = int_of_float (jnum j "gates_1q");
    gates_2q = int_of_float (jnum j "gates_2q");
    t_count = int_of_float (jnum j "t_count");
    depth = int_of_float (jnum j "depth");
    t_depth = int_of_float (jnum j "t_depth");
    ancillae = int_of_float (jnum j "ancillae");
    compile_us = jnum j "compile_us";
    cache_hits = int_of_float (jnum j "cache_hits");
    cache_misses = int_of_float (jnum j "cache_misses");
    equiv = jstr j "equiv";
    fidelity = jopt j "fidelity";
    tvd = jopt j "tvd" }

(** [snapshot_of_json j] accepts either a bare corpus snapshot or a whole
    BENCH_pr*.json document carrying a ["corpus"] member. *)
let snapshot_of_json j =
  let j = match Json.member "corpus" j with Some c -> c | None -> j in
  match (Json.member "version" j, Json.member "entries" j) with
  | Some (Json.Num v), Some (Json.Arr items) ->
      let version = int_of_float v in
      if version <> snapshot_version then
        snapfail "corpus snapshot version %d (this build reads %d)" version
          snapshot_version;
      { version; entries = List.map record_of_json items }
  | _ -> snapfail "not a corpus snapshot (no version/entries)"

let write_snapshot path s =
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj [ ("corpus", snapshot_to_json s) ]));
  output_char oc '\n';
  close_out oc

let read_snapshot path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  snapshot_of_json (Json.parse s)

(* ------------------------------------------------------------------ *)
(* Human table                                                         *)
(* ------------------------------------------------------------------ *)

let table records =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %6s %6s %4s %4s %7s %6s %7s %-22s %9s %7s\n" "entry"
       "qubits" "gates" "1q" "2q" "T" "depth" "anc" "equiv" "fidelity" "tvd");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-16s %6d %6d %4d %4d %7d %6d %7d %-22s %9s %7s\n" r.name
           r.qubits r.gates r.gates_1q r.gates_2q r.t_count r.depth r.ancillae
           r.equiv
           (match r.fidelity with Some f -> Printf.sprintf "%.6f" f | None -> "-")
           (match r.tvd with Some t -> Printf.sprintf "%.4f" t | None -> "-")))
    records;
  Buffer.add_string buf
    (Printf.sprintf "rollups over %d entries:\n" (List.length records));
  List.iter
    (fun (m, (s : Obs.Summary.hist_stats)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-12s n=%d min=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f\n" m
           s.Obs.Summary.n s.Obs.Summary.min s.Obs.Summary.p50 s.Obs.Summary.p95
           s.Obs.Summary.p99 s.Obs.Summary.max))
    (rollups (snapshot records));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Snapshot diffing: the regression gate                               *)
(* ------------------------------------------------------------------ *)

module Diff = struct
  (** Per-metric tolerance as a fraction of the old value: [t_count, 0.]
      means any T-count increase is a regression, [compile_us, 0.5]
      tolerates 50% wall-clock noise. [fidelity] regresses downward; all
      other metrics regress upward. *)
  type thresholds = (string * float) list

  let default_thresholds =
    [ ("gates", 0.); ("gates_1q", 0.); ("gates_2q", 0.); ("t_count", 0.);
      ("depth", 0.); ("t_depth", 0.); ("qubits", 0.); ("ancillae", 0.);
      ("compile_us", 0.5); ("fidelity", 0.01); ("tvd", 0.10) ]

  exception Bad_threshold of string

  (** [parse_thresholds spec] reads ["metric=frac,metric=frac"] overrides
      on top of {!default_thresholds}; raises {!Bad_threshold} naming an
      unknown metric or an unparsable fraction. *)
  let parse_thresholds spec =
    let overrides =
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              if not (List.mem_assoc k default_thresholds) then
                raise
                  (Bad_threshold
                     (Printf.sprintf "unknown metric %s (known: %s)" k
                        (String.concat ", " (List.map fst default_thresholds))));
              (match float_of_string_opt v with
              | Some f when f >= 0. -> (k, f)
              | _ ->
                  raise
                    (Bad_threshold
                       (Printf.sprintf "metric %s: bad fraction %s" k v)))
          | None ->
              raise
                (Bad_threshold
                   (Printf.sprintf "bad threshold %s (expected metric=frac)" kv)))
        (String.split_on_char ',' spec |> List.filter (fun s -> String.trim s <> ""))
    in
    List.map
      (fun (k, d) ->
        (k, match List.assoc_opt k overrides with Some v -> v | None -> d))
      default_thresholds

  type delta = {
    metric : string;
    old_v : float;
    new_v : float;
    regressed : bool;
  }

  type entry_diff = {
    entry : string;
    deltas : delta list; (* only metrics present on both sides *)
    equiv_regressed : bool;
  }

  type report = {
    common : entry_diff list;
    added : string list;
    removed : string list;
    regressions : (string * string) list; (* (entry, metric) pairs *)
  }

  let eps = 1e-9

  let metric_regressed metric thr ~old_v ~new_v =
    if metric = "fidelity" then new_v < (old_v *. (1. -. thr)) -. eps
    else new_v > (old_v *. (1. +. thr)) +. eps

  let equiv_ok = function "NOT-equivalent" -> false | _ -> true

  (** [diff ?thresholds old new] compares two snapshots entry-by-entry,
      metric-by-metric. An equivalence verdict that flips from passing
      to [NOT-equivalent] is always a regression, thresholds aside. *)
  let diff ?(thresholds = default_thresholds) old_s new_s =
    let old_by_name = List.map (fun r -> (r.name, r)) old_s.entries in
    let new_by_name = List.map (fun r -> (r.name, r)) new_s.entries in
    let regressions = ref [] in
    let common =
      List.filter_map
        (fun (name, nr) ->
          match List.assoc_opt name old_by_name with
          | None -> None
          | Some orr ->
              let deltas =
                List.filter_map
                  (fun (metric, thr) ->
                    match
                      (metric_of_record orr metric, metric_of_record nr metric)
                    with
                    | Some old_v, Some new_v ->
                        let regressed =
                          metric_regressed metric thr ~old_v ~new_v
                        in
                        if regressed then
                          regressions := (name, metric) :: !regressions;
                        Some { metric; old_v; new_v; regressed }
                    | _ -> None)
                  thresholds
              in
              let equiv_regressed = equiv_ok orr.equiv && not (equiv_ok nr.equiv) in
              if equiv_regressed then regressions := (name, "equiv") :: !regressions;
              Some { entry = name; deltas; equiv_regressed })
        new_by_name
    in
    { common;
      added =
        List.filter_map
          (fun (n, _) -> if List.mem_assoc n old_by_name then None else Some n)
          new_by_name;
      removed =
        List.filter_map
          (fun (n, _) -> if List.mem_assoc n new_by_name then None else Some n)
          old_by_name;
      regressions = List.rev !regressions }

  let has_regressions r = r.regressions <> []

  (** [render r] is the human report: one line per changed metric, a
      note per added/removed entry, and the regression verdict. *)
  let render r =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "corpus diff: %d common, %d added, %d removed\n"
         (List.length r.common) (List.length r.added) (List.length r.removed));
    List.iter
      (fun ed ->
        let changed = List.filter (fun d -> d.old_v <> d.new_v) ed.deltas in
        if changed <> [] || ed.equiv_regressed then begin
          Buffer.add_string buf (Printf.sprintf "%s:\n" ed.entry);
          List.iter
            (fun d ->
              Buffer.add_string buf
                (Printf.sprintf "  %-12s %12.2f -> %12.2f%s\n" d.metric d.old_v
                   d.new_v
                   (if d.regressed then "  REGRESSION" else "")))
            changed;
          if ed.equiv_regressed then
            Buffer.add_string buf "  equiv        now NOT-equivalent  REGRESSION\n"
        end)
      r.common;
    List.iter
      (fun n -> Buffer.add_string buf (Printf.sprintf "%s: new entry\n" n))
      r.added;
    List.iter
      (fun n -> Buffer.add_string buf (Printf.sprintf "%s: dropped\n" n))
      r.removed;
    Buffer.add_string buf
      (if r.regressions = [] then "no regressions\n"
       else
         Printf.sprintf "%d regression(s): %s\n"
           (List.length r.regressions)
           (String.concat ", "
              (List.map (fun (e, m) -> e ^ "/" ^ m) r.regressions)));
    Buffer.contents buf

  (** [to_json r] is the machine-readable diff (the [--json] output of
      [qasm_tool corpus diff]). *)
  let to_json r =
    Json.Obj
      [ ("mode", Json.String "corpus");
        ("entries",
         Json.Arr
           (List.map
              (fun ed ->
                Json.Obj
                  [ ("name", Json.String ed.entry);
                    ("equiv_regressed", Json.Bool ed.equiv_regressed);
                    ("metrics",
                     Json.Arr
                       (List.map
                          (fun d ->
                            Json.Obj
                              [ ("metric", Json.String d.metric);
                                ("old", Json.Num d.old_v);
                                ("new", Json.Num d.new_v);
                                ("regressed", Json.Bool d.regressed) ])
                          ed.deltas)) ])
              r.common));
        ("added", Json.Arr (List.map (fun n -> Json.String n) r.added));
        ("removed", Json.Arr (List.map (fun n -> Json.String n) r.removed));
        ("regressions",
         Json.Arr
           (List.map
              (fun (e, m) ->
                Json.Obj [ ("entry", Json.String e); ("metric", Json.String m) ])
              r.regressions)) ]
end

(* ------------------------------------------------------------------ *)
(* Shell surface                                                       *)
(* ------------------------------------------------------------------ *)

(* [corpus list | run [specs…] | write <file> [specs…] | diff <old> <new>
   [m=thr,…]] — registered into Core.Shell's extension table so the
   revkit shell (and its scripts) drive the corpus without core
   depending on this library. The shell is report-only: the failing
   exit code lives in [qasm_tool corpus diff --fail-on-regression]. *)
let shell_command st args =
  let module Shell = Core.Shell in
  let say fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string st.Shell.out s;
        Buffer.add_char st.Shell.out '\n')
      fmt
  in
  let entries_of specs =
    if specs = [] then default_manifest
    else try parse_entries specs with Bad_spec m -> raise (Shell.Error m)
  in
  match args with
  | [ "list" ] ->
      List.iter (fun (name, doc) -> say "%-10s %s" name doc) families;
      say "default manifest: %s"
        (String.concat " " (List.map entry_name default_manifest));
      st
  | "run" :: specs ->
      let records = run (entries_of specs) in
      say "%s" (String.trim (table records));
      st
  | "write" :: file :: specs ->
      let records = run (entries_of specs) in
      write_snapshot file (snapshot records);
      say "wrote %d corpus records to %s" (List.length records) file;
      st
  | "diff" :: old_path :: new_path :: rest ->
      let thresholds =
        match rest with
        | [] -> Diff.default_thresholds
        | [ spec ] -> (
            try Diff.parse_thresholds spec
            with Diff.Bad_threshold m -> raise (Shell.Error ("corpus diff: " ^ m)))
        | _ -> raise (Shell.Error "corpus diff: expected <old> <new> [m=thr,…]")
      in
      let load p =
        try read_snapshot p with
        | Sys_error m -> raise (Shell.Error ("corpus diff: " ^ m))
        | Json.Parse_error m | Bad_snapshot m ->
            raise (Shell.Error (Printf.sprintf "corpus diff: %s: %s" p m))
      in
      let report = Diff.diff ~thresholds (load old_path) (load new_path) in
      say "%s" (String.trim (Diff.render report));
      st
  | _ ->
      raise
        (Shell.Error
           "corpus: expected list | run [specs…] | write <file> [specs…] | \
            diff <old> <new> [metric=threshold,…]")

(** [install_shell_command ()] registers the [corpus] command into
    {!Core.Shell}'s extension table. Call once at CLI startup. *)
let install_shell_command () =
  Core.Shell.register_command "corpus"
    ~doc:"workload corpus: list | run [specs…] | write <file> [specs…] | diff <old> <new> [m=thr,…]"
    shell_command
