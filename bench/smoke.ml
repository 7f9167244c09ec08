(* Smoke cases, wired into the default test alias with one runtest rule
   per case (bench/dune), so dune runs the cases in parallel:

     smoke <case> [input…]

   A case is one row of [cases]: steps, then checks. A step is a
   labelled run of an input executable with its expected exit code, or
   an in-process check. A run's stdout and stderr land in <label>.out
   and <label>.err in the case's temp dir, and the checks read the
   files the steps left there. Inputs are matched by basename: an
   argument that names one ("qasm_tool.exe", "BENCH_pr9.json") stands
   for the path given on the command line, and a leading "$tmp" stands
   for the temp dir, which is removed on every exit path. A failure
   prints one line naming the case and exits 1. *)

type step =
  | Run of string * string list * int
      (** label, argv (an input executable first), expected exit code *)
  | Do of (string -> string)
      (** in-process step given the temp dir; returns a note for the OK
          line ("" for none) and calls [fail] on a violation *)

type check =
  | Same of string list  (** temp files, non-empty and byte-identical *)
  | Pinned of string list * string
      (** temp files, whose concatenation must equal the input file *)
  | Contains of string * string  (** temp file, substring *)
  | One_line of string * string
      (** temp file holding exactly one line, which starts with the prefix *)
  | Counters of string * string list
      (** --trace-out file: parses, spans nest, and each Obs counter's
          total is nonzero *)
  | Marker of string * string
      (** temp file, "key=": the integer after its first occurrence is
          nonzero *)

type case = {
  name : string;
  steps : step list;
  checks : check list;
  ceiling : float option;  (** wall-clock seconds for the whole case *)
}

let current = ref "?"

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (Printf.sprintf "smoke %s: %s" !current m);
      exit 1)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let find ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go 0

(* --- in-process steps --- *)

(* one hidden-shift compile + simulate through the full pass pipeline *)
let solve _ =
  let instance = Core.Hidden_shift.Inner_product { n = 3; s = 5 } in
  let compiled, ancillae = Core.Hidden_shift.build_compiled instance in
  let sv = Qc.Statevector.run compiled in
  let outcome = Qc.Statevector.most_likely sv in
  if outcome <> 5 then fail "hidden shift mis-solved (got %d, want 5)" outcome;
  if not (Qc.Statevector.is_basis_state ~eps:1e-6 sv outcome) then
    fail "outcome not deterministic";
  Printf.sprintf "+%d ancillae, %d gates" ancillae (Qc.Circuit.num_gates compiled)

(* with no sink installed, Obs.with_span is one branch; 1µs/call would
   mean it grew real work (timestamps, allocation) *)
let null_span_overhead _ =
  Obs.set_sink None;
  let iters = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Obs.with_span "x" (fun () -> Sys.opaque_identity 1)))
  done;
  let per_call = (Unix.gettimeofday () -. t0) /. float_of_int iters in
  if per_call > 1e-6 then
    fail "null-sink with_span costs %.0fns/call (> 1000ns ceiling)" (per_call *. 1e9);
  Printf.sprintf "null-sink span %.0fns/call" (per_call *. 1e9)

(* the null sink skips everything the recording sink does, so (min of 5,
   50% headroom, 5ms floor) it can only be faster compiling hwb4 *)
let null_flow_overhead _ =
  let time_compile () =
    let hwb4 = Logic.Funcgen.hwb 4 in
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (Core.Flow.compile_perm hwb4);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  Obs.set_sink None;
  let null_time = time_compile () in
  let m = Obs.Memory.create () in
  Obs.set_sink (Some (Obs.Memory.sink m));
  let recording_time = time_compile () in
  Obs.set_sink None;
  if null_time > (recording_time *. 1.5) +. 0.005 then
    fail "null-sink compile took %.2fms vs %.2fms recording — disabled path regressed"
      (null_time *. 1e3) (recording_time *. 1e3);
  if Obs.Memory.length m = 0 then fail "recording sink captured no events";
  Printf.sprintf "hwb4 null %.2fms, recording %.2fms" (null_time *. 1e3)
    (recording_time *. 1e3)

(* The seed-42 Maiorana-McFarland 6+6 instance (15 qubits) through
   lowering and T-par: the peephole keeps its pinned gate count, and one
   pass over the 19k gates stays interactive (the restart-from-zero
   fixpoint it replaced took about 9 s). Arrivals and removals allocate
   nothing, so the pass allocates a few minor words per input gate, for
   the output list and the fused gates (Gc.minor_words is exact, so the
   ceiling is not a timing; building qubit lists and option slots cost
   24.5). *)
let peephole _ =
  let inst = Core.Hidden_shift.random_mm_instance (Random.State.make [| 42 |]) 6 in
  let lowered, _ = Qc.Clifford_t.compile (Core.Hidden_shift.build inst) in
  let folded = Qc.Tpar.optimize lowered in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let final = Qc.Opt.simplify folded in
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = (Gc.minor_words () -. w0) /. float_of_int (Qc.Circuit.num_gates folded) in
  let gates = Qc.Circuit.num_gates final in
  if gates <> 14712 then fail "MM 6+6 simplifies to %d gates, want 14712" gates;
  if elapsed > 1. then fail "simplify took %.2fs (> 1s ceiling)" elapsed;
  if words > 6. then fail "simplify allocates %.1f minor words per gate (> 6 ceiling)" words;
  Printf.sprintf "MM 6+6 %d -> %d gates, simplify %.1fms, %.1f words/gate"
    (Qc.Circuit.num_gates folded) gates (elapsed *. 1e3) words

(* MD5 over the Int64 bits of (re, im) of every amplitude, in index
   order. *)
let state_digest s =
  let b = Buffer.create (16 * Qc.Statevector.size s) in
  for x = 0 to Qc.Statevector.size s - 1 do
    let a = Qc.Statevector.amplitude s x in
    Buffer.add_int64_le b (Int64.bits_of_float a.re);
    Buffer.add_int64_le b (Int64.bits_of_float a.im)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Gate by gate, the seed-42 MM 3+3 (6 qubits) and 5+5 (12 qubits) flow
   outputs end in pinned amplitude bits, on one slab and on 8-amplitude
   slabs: the per-gate kernels visit only the amplitudes a gate touches,
   and compute each one as the kernels that tested every index did. *)
let gates _ =
  List.iter
    (fun (k, want) ->
      let inst = Core.Hidden_shift.random_mm_instance (Random.State.make [| 42 |]) k in
      let lowered, _ = Qc.Clifford_t.compile (Core.Hidden_shift.build inst) in
      let c = Qc.Opt.simplify (Qc.Tpar.optimize lowered) in
      List.iter
        (fun sb ->
          Qc.Statevector.set_shard_bits sb;
          let got = state_digest (Qc.Statevector.run ~fuse:false c) in
          Qc.Statevector.set_shard_bits None;
          if got <> want then
            fail "MM %d+%d gate by gate (shard bits %s) hashes to %s, want %s" k k
              (match sb with Some b -> string_of_int b | None -> "auto")
              got want)
        [ None; Some 3 ])
    [ (3, "e72a1908536d13cc72ab48c77eebf34d"); (5, "3d774775ecf534a807f6964a1042b999") ];
  "MM 3+3 and 5+5 amplitude bits pinned"

(* T-par costs each region its own gates. On the seed-42 MM 6+6
   lowering it keeps its pinned output and allocates a few minor words
   per gate (Gc.minor_words is exact, so the ceiling is not a timing).
   The 60-qubit inner product has 60 H barriers around regions of a gate
   or two: resetting all 60 wires at every barrier costs about 1.2 ms a
   call, 500 ms for the 400 calls timed here. *)
let tpar _ =
  let inst = Core.Hidden_shift.random_mm_instance (Random.State.make [| 42 |]) 6 in
  let lowered, _ = Qc.Clifford_t.compile (Core.Hidden_shift.build inst) in
  let w0 = Gc.minor_words () in
  let folded = Qc.Tpar.optimize lowered in
  let words = (Gc.minor_words () -. w0) /. float_of_int (Qc.Circuit.num_gates lowered) in
  let gates = Qc.Circuit.num_gates folded and t = Qc.Circuit.t_count folded in
  if gates <> 19168 || t <> 8586 then
    fail "MM 6+6 folds to %d gates, T-count %d; want 19168, 8586" gates t;
  if words > 8. then fail "T-par allocates %.1f minor words per gate (> 8 ceiling)" words;
  let ip, _ =
    Qc.Clifford_t.compile
      (Core.Hidden_shift.build (Core.Hidden_shift.Inner_product { n = 30; s = 0x2b5d3a1c }))
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 400 do
    ignore (Sys.opaque_identity (Qc.Tpar.optimize ip))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 0.1 then
    fail "400 T-par calls on the 60-qubit inner product took %.0fms (> 100ms ceiling)"
      (elapsed *. 1e3);
  Printf.sprintf "MM 6+6 %d -> %d gates, T-count %d, %.1f words/gate; 60-qubit IP x400 %.1fms"
    (Qc.Circuit.num_gates lowered) gates t words (elapsed *. 1e3)

(* A dense run ends in sampling from a strided table, not a 2^n one:
   building the sampler of a 20-qubit H-layer state allocates under
   2^n/16 words (Gc.allocated_bytes is exact, so the ceiling is not a
   timing; the full table was 2^n words). The run itself starts at the
   H layer, bit for bit what init + Plan.execute of the plan leaves. *)
let sampler _ =
  let open Qc in
  let n = 20 in
  let c =
    Circuit.of_gates n
      (List.init n (fun q -> Gate.H q)
      @ List.init (n - 1) (fun q -> Gate.Cnot (q, q + 1))
      @ [ Gate.T 0; Gate.H 0; Gate.S 7; Gate.H 19 ])
  in
  let s = Statevector.run c in
  let reference = Statevector.init n in
  Statevector.Plan.execute (Statevector.Plan.build c) reference;
  let bits x = Int64.bits_of_float x in
  for x = 0 to Statevector.size s - 1 do
    let a = Statevector.amplitude s x and b = Statevector.amplitude reference x in
    if bits a.re <> bits b.re || bits a.im <> bits b.im then
      fail "run differs from init + Plan.execute at amplitude %d" x
  done;
  let b0 = Gc.allocated_bytes () in
  let smp = Statevector.sampler s in
  let words = (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) in
  let ceiling = (1 lsl n) / 16 in
  if words > float_of_int ceiling then
    fail "the 20-qubit sampler allocates %.0f words (> %d ceiling)" words ceiling;
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 256 do
    let x = Statevector.sample_with smp st in
    if Statevector.prob s x = 0. then fail "drew %d, an outcome of probability 0" x
  done;
  Printf.sprintf "20-qubit run = init + execute, sampler %.0f words (ceiling %d)" words ceiling

(* Bump every per-entry "t_count" value of snapshot a.json by 16, past
   any threshold, into regressed.json. The rollup object under the same
   key carries no bare number, so only the entry records change. *)
let inject_t_count_regression dir =
  let s = read_file (Filename.concat dir "a.json") in
  let marker = "\"t_count\":" in
  let mlen = String.length marker and n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + mlen <= n && String.sub s !i mlen = marker then begin
      Buffer.add_string buf marker;
      i := !i + mlen;
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j > !i then begin
        Buffer.add_string buf (string_of_int (int_of_string (String.sub s !i (!j - !i)) + 16));
        i := !j
      end
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  if Buffer.contents buf = s then
    fail "regression injection was a no-op — marker scan found no t_count values";
  write_file (Filename.concat dir "regressed.json") (Buffer.contents buf);
  ""

(* A 12-qubit circuit, wide enough to engage the plan layer
   (fuse_min_qubits = 10): H layer, three T + CNOT-ladder layers, H layer.
   [~shift] appends the hidden shift's X^s·CZ·X^s shape and an H layer:
   the plan pushes the X's through the CZ run and folds the resulting
   sweep into that layer's (cross-slab) pass. *)
let layers_qasm ~shift =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let h_layer () = for q = 0 to 11 do line "h q[%d];" q done in
  line "OPENQASM 2.0;";
  line "include \"qelib1.inc\";";
  line "qreg q[12];";
  h_layer ();
  for _layer = 1 to 3 do
    for q = 0 to 11 do line "t q[%d];" q done;
    for q = 0 to 10 do line "cx q[%d],q[%d];" q (q + 1) done
  done;
  h_layer ();
  if shift then begin
    let xs () = List.iter (line "x q[%d];") [ 0; 3; 4; 7; 10 ] in
    xs ();
    for p = 0 to 5 do line "cz q[%d],q[%d];" (2 * p) ((2 * p) + 1) done;
    xs ();
    h_layer ()
  end;
  Buffer.contents b

(* The 16-qubit inner-product instance of the Fig. 4 family, compiled:
   a Clifford circuit, so the noisy backend runs it as Pauli frames. *)
let inner_product_qasm =
  let inst = Core.Hidden_shift.Inner_product { n = 8; s = 0xb5 } in
  let c, _ = Core.Hidden_shift.build_compiled inst in
  Qc.Qasm.to_string ~measure:false c

(* An [n]-qubit GHZ state, whose first measurement is a random branch,
   and the same circuit with a T gate, which no tableau runs. *)
let ghz_qasm ?(t = false) n =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "OPENQASM 2.0;";
  line "include \"qelib1.inc\";";
  line "qreg q[%d];" n;
  line "h q[0];";
  if t then line "t q[0];";
  for q = 1 to n - 1 do line "cx q[0],q[%d];" q done;
  Buffer.contents b

let write_tmp name contents =
  Do
    (fun dir ->
      write_file (Filename.concat dir name) contents;
      "")

(* --- the cases --- *)

let hs = "hidden_shift_cli.exe"
let qt = "qasm_tool.exe"
let sim ~label args = Run (label, [ qt; "sim"; "$tmp/circuit.qasm" ] @ args, 0)
let smoke_specs = List.map Corpus.entry_name Corpus.smoke_manifest

let serve_load ~label pre =
  Run
    ( label,
      (qt :: pre)
      @ [ "serve"; "load"; "--requests"; "240"; "--seed"; "11"; "--rate"; "3";
          "--shots"; "8" ],
      0 )

let cases =
  [ (* compile + simulate in-process, under a generous ceiling: only a
       catastrophic regression trips it *)
    { name = "solve"; steps = [ Do solve ]; checks = []; ceiling = Some 30. };
    (* the one-pass peephole on a 15-qubit flow output: same gates, in
       milliseconds, few allocations *)
    { name = "peephole"; steps = [ Do peephole ]; checks = []; ceiling = None };
    (* the per-gate kernels on two flow outputs: pinned amplitude bits *)
    { name = "gates"; steps = [ Do gates ]; checks = []; ceiling = None };
    (* T-par on a 15-qubit flow output and a 60-qubit, barrier-heavy
       inner product: same gates, few allocations, no per-region
       rebuild *)
    { name = "tpar"; steps = [ Do tpar ]; checks = []; ceiling = None };
    (* a dense run starts at its first H layer and samples from a
       strided table: same amplitudes, no 2^n allocation *)
    { name = "sampler"; steps = [ Do sampler ]; checks = []; ceiling = None };
    (* --trace-out writes a valid, well-nested JSONL log, and the
       disabled telemetry path stays one branch *)
    { name = "trace";
      steps =
        [ Run ("cli", [ hs; "ip"; "-n"; "2"; "--shift"; "1"; "--trace-out"; "$tmp/cli.jsonl" ], 0);
          Do null_span_overhead;
          Do null_flow_overhead ];
      checks = [ Counters ("cli.jsonl", [ "qc.statevector.gates_applied" ]) ];
      ceiling = None };
    (* every simulation path prints the pinned lines: Pauli frames, the
       sparse noiseless state and the tableau on a Clifford circuit, and
       gate-by-gate noisy shots on a non-Clifford XAG oracle *)
    { name = "sim";
      steps =
        [ write_tmp "ip.qasm" inner_product_qasm;
          Run ("ip_noisy", [ qt; "run"; "noisy:shots=256,seed=7"; "$tmp/ip.qasm" ], 0);
          Run ("ip_sv", [ qt; "run"; "statevector"; "$tmp/ip.qasm" ], 0);
          Run ("ip_stab", [ qt; "run"; "stabilizer"; "$tmp/ip.qasm" ], 0);
          Run ("oracle_noisy", [ qt; "run"; "noisy"; "--oracle-xag"; "ltconst:8:100" ], 0);
          Run ("oracle_sv", [ qt; "run"; "statevector"; "--oracle-xag"; "ltconst:8:100" ], 0) ];
      checks =
        [ Pinned
            ( [ "ip_noisy.out"; "ip_sv.out"; "ip_stab.out"; "oracle_noisy.out"; "oracle_sv.out" ],
              "sim_smoke.expected" ) ];
      ceiling = None };
    (* stabsim prints what `run stabilizer` prints, random branch
       included, on every run; a non-Clifford file exits 1 *)
    { name = "stabsim";
      steps =
        [ write_tmp "ghz.qasm" (ghz_qasm 8);
          write_tmp "ghz_t.qasm" (ghz_qasm ~t:true 8);
          Run ("a", [ qt; "stabsim"; "$tmp/ghz.qasm" ], 0);
          Run ("b", [ qt; "stabsim"; "$tmp/ghz.qasm" ], 0);
          Run ("run", [ qt; "run"; "stabilizer"; "$tmp/ghz.qasm" ], 0);
          Run ("t", [ qt; "stabsim"; "$tmp/ghz_t.qasm" ], 1) ];
      checks =
        [ Same [ "a.out"; "b.out"; "run.out" ];
          Contains ("a.out", "random branch");
          One_line ("t.err", "stabsim: ") ];
      ceiling = None };
    (* the cache, off, cold or warm, never changes compiled output, and
       the persisted NPN store serves the warm run *)
    { name = "cache";
      steps =
        List.map
          (fun (label, extra) ->
            Run (label, [ hs; "random"; "-n"; "3"; "--seed"; "7" ] @ extra, 0))
          [ ("plain", []); ("cold", [ "--cache"; "$tmp" ]); ("warm", [ "--cache"; "$tmp" ]) ];
      checks = [ Same [ "plain.out"; "cold.out"; "warm.out" ]; Marker ("warm.err", "npn.hit=") ];
      ceiling = None };
    (* one slab at --jobs 1 and 4 and 8-amplitude slabs print the pinned
       digits, and the plan layer formed blocks *)
    { name = "plan";
      steps =
        [ write_tmp "circuit.qasm" (layers_qasm ~shift:true);
          sim ~label:"j1" [ "--jobs"; "1"; "--trace-out"; "$tmp/j1.jsonl" ];
          sim ~label:"j4" [ "--jobs"; "4" ];
          sim ~label:"sharded" [ "--jobs"; "1"; "--shard-bits"; "3" ] ];
      checks =
        [ Same [ "j1.out"; "j4.out"; "sharded.out" ];
          Pinned ([ "j1.out" ], "plan_smoke.expected");
          Counters ("j1.jsonl", [ "sv.plan.blocks" ]) ];
      ceiling = None };
    (* slab layout and worker count never change a printed digit, and
       the sharded run really split the state *)
    { name = "shard";
      steps =
        [ write_tmp "circuit.qasm" (layers_qasm ~shift:false);
          sim ~label:"flat_j1" [ "--jobs"; "1" ];
          sim ~label:"flat_j4" [ "--jobs"; "4" ];
          sim ~label:"shard8_j1"
            [ "--jobs"; "1"; "--shard-bits"; "8"; "--trace-out"; "$tmp/shard8_j1.jsonl" ];
          sim ~label:"shard8_j4" [ "--jobs"; "4"; "--shard-bits"; "8" ];
          sim ~label:"shard5_j4" [ "--jobs"; "4"; "--shard-bits"; "5" ] ];
      checks =
        [ Same [ "flat_j1.out"; "flat_j4.out"; "shard8_j1.out"; "shard8_j4.out"; "shard5_j4.out" ];
          Counters ("shard8_j1.jsonl", [ "sv.shard.slabs" ]) ];
      ceiling = None };
    (* two fresh processes write the same corpus snapshot, and
       `corpus diff` gates an injected T-count regression only when asked *)
    { name = "corpus";
      steps =
        [ Run ("a", [ qt; "corpus"; "run"; "--no-timings"; "--out"; "$tmp/a.json" ] @ smoke_specs, 0);
          Run ("b", [ qt; "corpus"; "run"; "--no-timings"; "--out"; "$tmp/b.json" ] @ smoke_specs, 0);
          Run ("gate_same", [ qt; "corpus"; "diff"; "$tmp/a.json"; "$tmp/b.json"; "--fail-on-regression" ], 0);
          Do inject_t_count_regression;
          Run
            ( "gate_regressed",
              [ qt; "corpus"; "diff"; "$tmp/a.json"; "$tmp/regressed.json"; "--fail-on-regression" ],
              1 );
          Run ("report", [ qt; "corpus"; "diff"; "$tmp/a.json"; "$tmp/regressed.json" ], 0) ];
      checks = [ Same [ "a.json"; "b.json" ] ];
      ceiling = None };
    (* the historical BENCH_pr*.json reports stay readable, and bad
       arguments are one-line refusals, not backtraces *)
    { name = "corpus_diff";
      steps =
        [ Run ("history", [ qt; "corpus"; "diff"; "BENCH_pr9.json"; "BENCH_pr10.json" ], 0);
          Run ("missing", [ qt; "corpus"; "diff"; "$tmp/missing.json"; "BENCH_pr10.json" ], 2);
          Run
            ( "bogus",
              [ qt; "corpus"; "diff"; "BENCH_pr9.json"; "BENCH_pr10.json"; "--threshold"; "bogus" ],
              2 ) ];
      checks =
        [ Contains ("history.out", "corpus diff: 17 common, 0 added, 0 removed");
          One_line ("missing.err", "qasm_tool: ");
          One_line ("bogus.err", "qasm_tool: ") ];
      ceiling = None };
    (* a hostile fault profile replays bit for bit, the shift is still
       recovered, and retries, the breaker trip and shot loss show as
       counters *)
    { name = "chaos";
      steps =
        List.map
          (fun label ->
            Run
              ( label,
                [ hs; "ip"; "-n"; "2"; "--shift"; "1"; "--shots"; "512"; "--faults";
                  "hostile,loss=0.6"; "--trace-out"; "$tmp/" ^ label ^ ".jsonl" ],
                0 ))
          [ "a"; "b" ];
      checks =
        [ Same [ "a.out"; "b.out" ];
          Contains ("a.out", "Shift is 1");
          Counters ("a.jsonl", [ "device.retry"; "device.breaker.open"; "device.shots.lost" ]) ];
      ceiling = None };
    (* a 3x-overload trace gives the same summary at --jobs 1 and 4, with
       or without a sink, and visibly sheds and coalesces *)
    { name = "serve";
      steps =
        [ serve_load ~label:"a" [ "--jobs"; "1" ];
          serve_load ~label:"b" [ "--jobs"; "1"; "--trace-out"; "$tmp/b.jsonl" ];
          serve_load ~label:"c" [ "--jobs"; "4" ] ];
      checks =
        [ Same [ "a.out"; "b.out"; "c.out" ];
          Contains ("a.out", "delivered");
          Contains ("a.out", "results digest 6e4ca2ec3bce8b5f8fb89a6b6a8be964");
          Counters ("b.jsonl", [ "serve.request"; "serve.shed"; "serve.coalesce.hit" ]) ];
      ceiling = None };
    (* a 16-bit comparator (32 inputs) maps in interactive time; the
       whole-oracle store replays it unchanged, and a re-map under another
       ancilla budget still hits the NPN cover store *)
    { name = "xag";
      steps =
        List.map
          (fun (label, extra) ->
            Run
              ( label,
                [ hs; "oracle"; "--oracle-xag"; "lt:16"; "--lut-k"; "4"; "--cache"; "$tmp" ] @ extra,
                0 ))
          [ ("cold", [ "--ancilla-budget"; "8"; "--trace-out"; "$tmp/cold.jsonl" ]);
            ("warm", [ "--ancilla-budget"; "8" ]);
            ("remap", [ "--ancilla-budget"; "6" ]) ];
      checks =
        [ Same [ "cold.out"; "warm.out" ];
          Counters ("cold.jsonl", [ "xag.luts" ]);
          Marker ("cold.err", "npn.hit=");
          Marker ("warm.err", "xag.hit=");
          Marker ("remap.err", "npn.hit=") ];
      ceiling = Some 60. } ]

(* --- the driver --- *)

let run ~inputs ~dir label argv code =
  let resolve a =
    match List.assoc_opt a inputs with
    | Some path -> path
    | None when String.starts_with ~prefix:"$tmp" a ->
        dir ^ String.sub a 4 (String.length a - 4)
    | None -> a
  in
  if not (List.mem_assoc (List.hd argv) inputs) then
    fail "run %s: no input named %s" label (List.hd argv);
  let argv = List.map resolve argv in
  let open_out name =
    Unix.openfile (Filename.concat dir name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = open_out (label ^ ".out") and err = open_out (label ^ ".err") in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c when c = code -> ()
  | Unix.WEXITED c ->
      fail "run %s exited %d, want %d: %s (stderr: %s)" label c code (String.concat " " argv)
        (String.trim (read_file (Filename.concat dir (label ^ ".err"))))
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "run %s killed by signal %d" label s

(* the events of a --trace-out file, checked to parse and to nest *)
let trace_events path =
  let events =
    try Obs.Export.parse_jsonl (read_file path)
    with Obs.Json.Parse_error msg -> fail "%s does not parse: %s" path msg
  in
  if events = [] then fail "%s is empty" path;
  let stack =
    List.fold_left
      (fun stack e ->
        match e with
        | Obs.Span_begin { name; depth; _ } ->
            if depth <> List.length stack then
              fail "span %s opens at depth %d, expected %d" name depth (List.length stack);
            name :: stack
        | Obs.Span_end { name; depth; _ } -> (
            match stack with
            | top :: rest when top = name && depth = List.length rest -> rest
            | _ -> fail "span end %s does not match the innermost open span" name)
        | Obs.Counter _ | Obs.Sample _ -> stack)
      [] events
  in
  if stack <> [] then fail "%s ends with %d unclosed spans" path (List.length stack);
  events

let check ~inputs ~dir notes c =
  let tmp name = read_file (Filename.concat dir name) in
  match c with
  | Same [] -> notes
  | Same (first :: rest) ->
      let reference = tmp first in
      if reference = "" then fail "%s is empty" first;
      List.iter (fun f -> if tmp f <> reference then fail "%s differs from %s" f first) rest;
      notes
  | Pinned (files, input) -> (
      match List.assoc_opt input inputs with
      | None -> fail "no input named %s" input
      | Some path ->
          if String.concat "" (List.map tmp files) <> read_file path then
            fail "%s differ from %s" (String.concat " + " files) path;
          notes)
  | Contains (file, sub) ->
      if find ~sub (tmp file) = None then
        fail "%s lacks %S (it reads: %s)" file sub (String.trim (tmp file));
      notes
  | One_line (file, prefix) ->
      let text = tmp file in
      if not (String.starts_with ~prefix text
              && String.index_opt text '\n' = Some (String.length text - 1))
      then fail "%s is not one line starting with %S (it reads: %s)" file prefix text;
      notes
  | Counters (file, names) ->
      let totals = Obs.Summary.counter_totals (trace_events (Filename.concat dir file)) in
      List.fold_left
        (fun notes name ->
          match List.assoc_opt name totals with
          | None | Some 0 -> fail "%s shows no %s counter" file name
          | Some n -> Printf.sprintf "%s=%d" name n :: notes)
        notes names
  | Marker (file, key) -> (
      let text = tmp file in
      let value =
        Option.bind (find ~sub:key text) (fun i ->
            let j = i + String.length key in
            let k = ref j in
            while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
            int_of_string_opt (String.sub text j (!k - j)))
      in
      match value with
      | None | Some 0 -> fail "%s reports no nonzero %s (it reads: %s)" file key (String.trim text)
      | Some n -> Printf.sprintf "%s %s%d" file key n :: notes)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let name, paths =
    match Array.to_list Sys.argv with
    | _ :: name :: paths -> (name, paths)
    | _ -> ("", [])
  in
  let case =
    match List.find_opt (fun c -> c.name = name) cases with
    | Some c -> c
    | None ->
        Printf.eprintf "usage: smoke {%s} [input…]\n"
          (String.concat "|" (List.map (fun c -> c.name) cases));
        exit 2
  in
  current := name;
  let inputs = List.map (fun p -> (Filename.basename p, p)) paths in
  let t0 = Unix.gettimeofday () in
  let dir = Filename.temp_dir ("dautoq_" ^ name) "" in
  at_exit (fun () -> try remove dir with Sys_error _ -> ());
  let notes =
    List.fold_left
      (fun notes step ->
        match step with
        | Run (label, argv, code) ->
            run ~inputs ~dir label argv code;
            notes
        | Do f -> ( match f dir with "" -> notes | note -> note :: notes))
      [] case.steps
  in
  let notes = List.fold_left (check ~inputs ~dir) notes case.checks in
  let elapsed = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun c -> if elapsed > c then fail "took %.1fs (> %.0fs ceiling)" elapsed c)
    case.ceiling;
  let runs = List.length (List.filter (function Run _ -> true | Do _ -> false) case.steps) in
  Printf.printf "smoke %s: OK (%s%d runs in %.2fs)\n" name
    (String.concat ", " (List.rev notes) ^ if notes = [] then "" else "; ")
    runs elapsed
