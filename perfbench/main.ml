(* End-to-end and per-layer benchmark of the hidden-shift flow.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--inject LAYER:FRACTION] [--spans FILE]

   One process runs one workload, in process and on one domain. Set-up
   generates the workload's inputs from the seed, then a closed loop runs
   operations until [--seconds] have passed (the next operation starts
   when the previous one ends). Every operation's outputs are checked
   against a computation made apart from the program; an operation whose
   check fails, or that raises, counts as failed.

   With [--trace 0] the last line of stdout is a JSON object with the
   end-to-end metrics. With [--trace 1] the run records one span per
   layer call (name, start, end, operation id); the spans are reduced to
   per-layer self time per operation, and the JSON holds the per-layer
   metrics plus the tracing overhead on ops_per_s (the measured cost of
   recording a span times the spans per operation). Spans are kept in
   memory and written to [--spans] (JSON lines) when the run ends.

   [--inject LAYER:FRACTION] busy-waits inside the benchmark's own
   wrapper around every call of LAYER for FRACTION of that call's time;
   the attribution self-check uses it to plant a known slowdown. *)

module HS = Core.Hidden_shift
module Flow = Core.Flow
module Circuit = Qc.Circuit
module Gate = Qc.Gate
module Sv = Qc.Statevector
module Noise = Qc.Noise

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Contention meter                                                    *)
(* ------------------------------------------------------------------ *)

(* On a small shared virtual machine, code runs at up to half speed
   whenever a neighbour shares the core, in phases lasting from
   milliseconds to tens of seconds: 128 noisy shots of one fixed circuit
   ran 9.4 to 12.3 times per second across five 10-second processes. So
   every [meter_period] a SIGALRM handler times a fixed floating-point
   loop over an array that fits in the L1 cache (after one untimed pass
   that loads it), and reported times are scaled to the speed at which
   that loop takes [reference_nominal] seconds: a time measured while the
   reference ran at mean time r is multiplied by [reference_nominal /. r].
   With the scaling the five noisy processes agreed within 1.5%, and six
   paper_flow runs of one seed moved 5% in median operation time instead
   of 15%. Raw wall times are printed alongside. The handler's own time
   is taken out of the benchmark's clock. *)
let meter_period = 0.005
let reference_nominal = 40e-6
let reference_data = Array.make 4096 1.0
let max_samples = 1 lsl 18
let sample_at = Array.make max_samples 0.
let sample_ref = Array.make max_samples 0.
let n_samples = ref 0
let meter_spent = ref 0.

let reference_pass () =
  for i = 0 to Array.length reference_data - 1 do
    reference_data.(i) <- (reference_data.(i) *. 0.999999) +. 1e-9
  done

let sample_reference () =
  let t0 = now () in
  reference_pass ();
  let t1 = now () in
  for _ = 1 to 8 do
    reference_pass ()
  done;
  let t2 = now () in
  if !n_samples < max_samples then begin
    sample_at.(!n_samples) <- t1;
    sample_ref.(!n_samples) <- t2 -. t1;
    incr n_samples
  end;
  meter_spent := !meter_spent +. (now () -. t0)

let set_meter period =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

(* The benchmark's clock: wall time less the time spent in the meter. *)
let clock () = now () -. !meter_spent

(* Mean reference time over the samples taken in [a, b] (wall times),
   widened by one period on each side; [None] without samples. *)
let reference_between a b =
  let lo = a -. meter_period and hi = b +. meter_period in
  (* first sample at or after [lo] *)
  let rec first l h =
    if l >= h then l
    else
      let m = (l + h) / 2 in
      if sample_at.(m) < lo then first (m + 1) h else first l m
  in
  let rec sum i acc k =
    if i < !n_samples && sample_at.(i) <= hi then sum (i + 1) (acc +. sample_ref.(i)) (k + 1)
    else (acc, k)
  in
  let total, k = sum (first 0 !n_samples) 0. 0 in
  if k = 0 then None else Some (total /. float_of_int k)

(* Scale for a time measured over the wall interval [a, b]: from the
   samples around it, else from the whole interval [wa, wb]. *)
let scale ~within:(wa, wb) a b =
  match reference_between a b with
  | Some r -> reference_nominal /. r
  | None -> (
      match reference_between wa wb with Some r -> reference_nominal /. r | None -> 1.)

(* ------------------------------------------------------------------ *)
(* Layer wrapper, spans and per-layer counts                           *)
(* ------------------------------------------------------------------ *)

(* [w0], [w1]: wall start and end; [self]: benchmark-clock self time. *)
type span = { name : string; op : int; w0 : float; w1 : float; self : float }

let tracing = ref false
let op_id = ref 0
let spans : span list ref = ref []
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

(* child-time accumulators of the spans currently open, innermost first *)
let open_spans : float ref list ref = ref []
let inject : (string * float) option ref = ref None

let busy_wait d =
  let stop = clock () +. d in
  while clock () < stop do
    ()
  done

(* [layer name f] is the benchmark's wrapper around one call into a
   layer. Untraced and without injection it is [f ()]. *)
let layer name f =
  let extra = match !inject with Some (l, x) when l = name -> x | _ -> 0. in
  if (not !tracing) && extra = 0. then f ()
  else begin
    let child = ref 0. in
    if !tracing then open_spans := child :: !open_spans;
    let w0 = now () and t0 = clock () in
    let finish () =
      if extra > 0. then busy_wait (extra *. (clock () -. t0));
      if !tracing then begin
        let t1 = clock () in
        open_spans := List.tl !open_spans;
        (match !open_spans with p :: _ -> p := !p +. (t1 -. t0) | [] -> ());
        spans :=
          { name; op = !op_id; w0; w1 = now (); self = t1 -. t0 -. !child } :: !spans
      end
    in
    Fun.protect ~finally:finish f
  end

let count name v =
  if !tracing then
    Hashtbl.replace counts name (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let cache_totals () =
  List.fold_left (fun (h, m) (_, (h', m')) -> (h + h', m + m')) (0, 0) (Cache.counters ())

(* ------------------------------------------------------------------ *)
(* Operation results and independent checks                            *)
(* ------------------------------------------------------------------ *)

(* What one operation hands back: whether every check held, the gate
   counts of the circuits it compiled (summed over [circuits]), and the
   extra work a traced run does for attribution once the operation's
   clock has stopped. *)
type result = {
  ok : bool;
  t_count : int;
  twoq : int;
  circuits : int;
  attribute : unit -> unit;
}

let failures = ref 0

let check cond what =
  if not cond then begin
    incr failures;
    if !failures <= 5 then Printf.eprintf "check failed: %s\n%!" what
  end;
  cond

let arity g = List.length (Gate.qubits g)
let twoq c = Circuit.count_matching (fun g -> arity g = 2) c
let clifford_t_only c = Circuit.fold (fun ok g -> ok && Gate.is_clifford_t g) true c

let counted ok c =
  { ok; t_count = Circuit.t_count c; twoq = twoq c; circuits = 1; attribute = ignore }

(* ------------------------------------------------------------------ *)
(* paper_flow: the Fig. 7/8 program at the paper's size                *)
(* ------------------------------------------------------------------ *)

(* 3+3-variable Maiorana-McFarland instances (6 qubits). The pool is
   larger than a run gets through; should a run ever wrap, the caches
   are cleared so that every instance still compiles cold. *)
let mm_vars = 3
let mm_pool = 2048

let paper_flow seed =
  let st = Random.State.make [| seed; 0x7a11 |] in
  let pool = Array.init mm_pool (fun _ -> HS.random_mm_instance st mm_vars) in
  fun i ->
    if i > 0 && i mod mm_pool = 0 then Cache.clear_memory ();
    let inst = pool.(i mod mm_pool) in
    (match inst with
    | HS.Mm { mm; _ } when !tracing ->
        (* the same synthesis the oracle builder asks for, done first
           through the caches so [engine.build] below replays it *)
        layer "rev.synth" (fun () ->
            ignore (Rev.Synth_cache.perm ~name:"tbs" Rev.Tbs.synth mm.Logic.Bent.pi);
            if not (Logic.Truth_table.is_const mm.Logic.Bent.h false) then
              ignore (Cache.Cover.minimize mm.Logic.Bent.h))
    | _ -> ());
    let c = layer "engine.build" (fun () -> HS.build inst) in
    let lowered, _ancillae = layer "qc.cliffordt" (fun () -> Qc.Clifford_t.compile c) in
    let folded = layer "qc.tpar" (fun () -> Qc.Tpar.optimize lowered) in
    let final = layer "qc.peephole" (fun () -> Qc.Opt.simplify folded) in
    let sv = layer "qc.sv.run" (fun () -> Sv.run final) in
    count "qc.gates_lowered" (float_of_int (Circuit.num_gates lowered));
    count "qc.gates_final" (float_of_int (Circuit.num_gates final));
    let s = HS.shift inst in
    let ok =
      check (clifford_t_only lowered) "paper_flow: lowered circuit leaves Clifford+T"
      && check (clifford_t_only final) "paper_flow: final circuit leaves Clifford+T"
      && check
           (Sv.prob sv s >= 1. -. 1e-6)
           (Printf.sprintf "paper_flow: final state is not |%d> with clean ancillae" s)
    in
    counted ok final

(* ------------------------------------------------------------------ *)
(* noisy_wide: the Fig. 6 experiment at width                          *)
(* ------------------------------------------------------------------ *)

let noisy_pairs = 8 (* inner product on 16 qubits *)
let noisy_shots = 128
let noisy_params = Noise.ibm_qx2017

(* Chance that a shot sees no gate or readout error at all: a lower
   bound on the planted shift's frequency, whatever errors do. *)
let no_error_chance (p : Noise.params) c =
  let one = Circuit.count_matching (fun g -> arity g = 1) c in
  ((1. -. p.Noise.p1) ** float_of_int one)
  *. ((1. -. p.Noise.p2) ** float_of_int (2 * twoq c))
  *. ((1. -. p.Noise.readout) ** float_of_int (Circuit.num_qubits c))

let noisy_wide seed =
  let st = Random.State.make [| seed; 0x2015e |] in
  let draws =
    Array.init 1024 (fun _ ->
        let s = Random.State.int st (1 lsl (2 * noisy_pairs)) in
        (s, Random.State.bits st))
  in
  fun i ->
    let s, shot_seed = draws.(i mod Array.length draws) in
    let inst = HS.Inner_product { n = noisy_pairs; s } in
    let c =
      if !tracing then begin
        let raw = layer "engine.build" (fun () -> HS.build inst) in
        let lowered, _ = layer "qc.cliffordt" (fun () -> Qc.Clifford_t.compile raw) in
        let c = layer "qc.tpar" (fun () -> Qc.Tpar.optimize lowered) in
        count "qc.gates_lowered" (float_of_int (Circuit.num_gates lowered));
        count "qc.gates_final" (float_of_int (Circuit.num_gates c));
        c
      end
      else fst (HS.build_compiled inst)
    in
    let hist =
      layer "qc.noise" (fun () ->
          Noise.run_shots ~seed:shot_seed ~jobs:1 noisy_params c ~shots:noisy_shots)
    in
    count "qc.noise.shots" (float_of_int noisy_shots);
    count "qc.noise.gate_applications" (float_of_int (noisy_shots * Circuit.num_gates c));
    let hits = Noise.count hist s in
    let mode_ok = ref true in
    Noise.iter_counts (fun x k -> if x <> s && k > hits then mode_ok := false) hist;
    let p0 = no_error_chance noisy_params c in
    let margin = 4. *. sqrt (p0 *. (1. -. p0) /. float_of_int noisy_shots) in
    let freq = float_of_int hits /. float_of_int noisy_shots in
    let ok =
      check (Noise.total_counts hist = noisy_shots) "noisy_wide: histogram total"
      && check !mode_ok (Printf.sprintf "noisy_wide: mode is not the shift %d" s)
      && check (freq >= p0 -. margin)
           (Printf.sprintf "noisy_wide: shift frequency %.3f below %.3f - %.3f" freq p0
              margin)
    in
    counted ok c

(* ------------------------------------------------------------------ *)
(* sv_wide: noiseless inner product above the slab threshold            *)
(* ------------------------------------------------------------------ *)

let sv_pairs = 11 (* 22 qubits: states split into slabs above 20 *)
let sv_samples = 256

let sv_wide seed =
  let st = Random.State.make [| seed; 0x5ab |] in
  let draws =
    Array.init 1024 (fun _ ->
        let s = Random.State.int st (1 lsl (2 * sv_pairs)) in
        (s, Random.State.bits st))
  in
  fun i ->
    let s, sample_seed = draws.(i mod Array.length draws) in
    let c = layer "engine.build" (fun () -> HS.build (HS.Inner_product { n = sv_pairs; s })) in
    let sv =
      if !tracing then begin
        let sv = layer "qc.sv.init" (fun () -> Sv.init (Circuit.num_qubits c)) in
        let plan = layer "qc.sv.plan_build" (fun () -> Sv.Plan.build c) in
        layer "qc.sv.plan_execute" (fun () -> Sv.Plan.execute plan sv);
        count "qc.sv.plan_kernels" (float_of_int (Sv.Plan.stats plan).Sv.Plan.ops);
        sv
      end
      else layer "qc.sv.run" (fun () -> Sv.run c)
    in
    let sampled_ok =
      layer "qc.sv.sampler" (fun () ->
          let smp = Sv.sampler sv in
          let st = Random.State.make [| sample_seed |] in
          let ok = ref true in
          for _ = 1 to sv_samples do
            if Sv.sample_with smp st <> s then ok := false
          done;
          !ok)
    in
    let ok =
      check (Sv.prob sv s >= 1. -. 1e-6)
        (Printf.sprintf "sv_wide: final state is not |%d>" s)
      && check sampled_ok "sv_wide: a sample differs from the shift"
    in
    counted ok c

(* ------------------------------------------------------------------ *)
(* serve_mix: bursts from four tenants through Serve.run               *)
(* ------------------------------------------------------------------ *)

let tenants =
  Serve.tenants_of_spec "alpha:w=4,cap=32;beta:w=2,cap=32;gamma:w=1,cap=32;delta:w=1,cap=32"

let serve_config seed = { (Serve.default_config ~tenants) with Serve.seed }

(* The service's own oracle pool, by compiled width: narrow (3-9
   qubits), 11, 14 and 17 qubits. Every burst draws the same number of
   requests from each class for each backend, so bursts differ only in
   the draws. *)
let narrow = [| 0; 1; 2; 3; 4; 5; 6; 7 |]
let w11 = [| 8; 9 |]
let w14 = [| 10 |]
let w17 = [| 11 |]

(* (backend, width class, shots) of every request in a burst. *)
let burst_shape =
  [ ("statevector", narrow, 1); ("statevector", narrow, 1); ("statevector", w11, 1);
    ("statevector", w14, 1); ("statevector", w17, 1);
    ("noisy", narrow, 32); ("noisy", w11, 16); ("noisy", w14, 4); ("noisy", w17, 2);
    ("qasm", narrow, 1); ("qasm", narrow, 1); ("qasm", w11, 1) ]

let parity_inputs = 4
let stabilizer_requests = 2
let duplicates = 2

(* A random affine function of [parity_inputs] variables: its ESOP is
   single literals, so the compiled circuit is Clifford. *)
let random_parity st =
  let mask = 1 + Random.State.int st ((1 lsl parity_inputs) - 1) in
  let flip = Random.State.bool st in
  Flow.Fn_spec
    [ Logic.Truth_table.of_fun parity_inputs (fun x ->
          Logic.Bitops.parity (x land mask) = 1 <> flip) ]

(* The spec's classical value on the all-zero input, as the basis state
   the compiled circuit must leave: inputs on the low lines, outputs
   above them, ancillae clean. *)
let zero_input_outcome = function
  | Flow.Perm_spec p -> Logic.Perm.apply p 0
  | Flow.Fn_spec fs ->
      let n = Logic.Truth_table.num_vars (List.hd fs) in
      List.fold_left
        (fun (acc, j) f ->
          ((if Logic.Truth_table.get f 0 then acc lor (1 lsl (n + j)) else acc), j + 1))
        (0, 0) fs
      |> fst
  | Flow.Xag_spec g -> Rev.Xag.eval g 0 lsl Rev.Xag.num_inputs g

let histogram_total payload shots =
  String.split_on_char '\n' payload
  |> List.fold_left
       (fun acc line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ _; f ] -> acc + int_of_float (Float.round (float_of_string f *. float_of_int shots))
         | _ -> acc)
       0

let serve_bursts = 256

(* Arrivals come at half the modelled service rate (uniform gaps with
   twice the mean request cost) and every deadline is far beyond a
   burst's virtual span, so nothing is shed or expires. *)
let make_burst st pool =
  let tenant () = (List.nth tenants (Random.State.int st (List.length tenants))).Serve.name in
  let pick cls = pool.(cls.(Random.State.int st (Array.length cls))) in
  let req backend spec shots =
    { Serve.tenant = tenant (); spec; pipeline = None; backend; shots; deadline_us = 1e12 }
  in
  (* (may be duplicated, request) *)
  let base =
    List.map (fun (b, cls, shots) -> (cls == narrow && b <> "noisy", req b (pick cls) shots))
      burst_shape
    @ List.init stabilizer_requests (fun _ -> (true, req "stabilizer" (random_parity st) 1))
  in
  (* duplicates of cheap requests (narrow statevector or qasm, and
     stabilizer), from another tenant and at the same arrival time, so
     that the service coalesces them *)
  let cheap = List.filter_map (fun (d, r) -> if d then Some r else None) base in
  let base = List.map snd base in
  let dups =
    List.init duplicates (fun _ ->
        let r = List.nth cheap (Random.State.int st (List.length cheap)) in
        (r, { r with Serve.tenant = tenant () }))
  in
  let mean_cost =
    List.fold_left (fun acc r -> acc +. Serve.request_cost r) 0. base
    /. float_of_int (List.length base)
  in
  let at = ref 0. in
  List.concat_map
    (fun r ->
      at := !at +. (4. *. mean_cost *. Random.State.float st 1.);
      let a = { Serve.at_us = !at; req = r } in
      a :: List.filter_map (fun (o, d) -> if o == r then Some { a with req = d } else None) dups)
    base

let payload_ok (req : Serve.request) (r : Serve.job_result) =
  check (r.Serve.verdict = Serve.Validated)
    (Printf.sprintf "serve_mix: request %d ended %s" r.Serve.jid
       (Serve.verdict_to_string r.Serve.verdict))
  &&
  match req.Serve.backend with
  | "statevector" | "stabilizer" ->
      let want = Printf.sprintf "measured %d (deterministic)" (zero_input_outcome req.spec) in
      check (r.Serve.payload = want)
        (Printf.sprintf "serve_mix: request %d payload %S, want %S" r.Serve.jid
           r.Serve.payload want)
  | "noisy" ->
      check (histogram_total r.Serve.payload req.Serve.shots = req.Serve.shots)
        (Printf.sprintf "serve_mix: request %d histogram does not total %d shots"
           r.Serve.jid req.Serve.shots)
  | _ -> true

(* Compiled circuits of each distinct (spec, pipeline) the service saw;
   the compile is a cache hit once the service has run it. *)
let compiled_memo : (string, Circuit.t) Hashtbl.t = Hashtbl.create 64

let compiled (req : Serve.request) =
  let key = Flow.spec_key req.Serve.spec in
  match Hashtbl.find_opt compiled_memo key with
  | Some c -> c
  | None ->
      let c = fst (Serve.compile_request ~level:0 req) in
      Hashtbl.add compiled_memo key c;
      c

(* The traced run replays each executed group's compile and execute
   directly, outside the service, so that the service's own time can be
   told apart from the flow and backend time it spends. *)
let replay cfg (burst : Serve.arrival array) (summary : Serve.summary) =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (r : Serve.job_result) ->
      let leader = r.Serve.leader in
      if not (Hashtbl.mem seen leader) then begin
        Hashtbl.add seen leader ();
        let req = burst.(leader).Serve.req in
        let c = layer "flow.compile" (fun () -> fst (Serve.compile_request ~level:0 req)) in
        let family = Serve.backend_family req.Serve.backend in
        let backend =
          if family = "noisy" then
            Qc.Backend.noisy ~seed:(Serve.job_seed cfg leader) ~shots:req.Serve.shots
              Noise.ibm_qx2017
          else Qc.Backend.of_spec family
        in
        ignore (layer ("backend." ^ family) (fun () -> Flow.execute backend c))
      end)
    summary.Serve.results

let serve_mix seed =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let pool = Lazy.force Serve.Load.spec_pool in
  let cfg = serve_config seed in
  let bursts = Array.init serve_bursts (fun _ -> Array.of_list (make_burst st pool)) in
  Hashtbl.reset compiled_memo;
  (* the service's caches are warm in a long-lived process: fill them
     with every distinct spec of the run before timing *)
  Array.iter (Array.iter (fun (a : Serve.arrival) -> ignore (compiled a.Serve.req))) bursts;
  fun i ->
    let burst = bursts.(i mod serve_bursts) in
    let summary = layer "serve.run" (fun () -> Serve.run ~jobs:1 cfg (Array.to_list burst)) in
    count "serve.requests" (float_of_int (Array.length burst));
    count "serve.compiles" (float_of_int summary.Serve.compiles);
    count "serve.coalesce_hits" (float_of_int summary.Serve.coalesce_hits);
    count "serve.rounds" (float_of_int summary.Serve.rounds);
    let ok =
      Array.for_all2
        (fun (a : Serve.arrival) r -> payload_ok a.Serve.req r)
        burst summary.Serve.results
    in
    let t, q =
      Array.fold_left
        (fun (t, q) (a : Serve.arrival) ->
          let c = compiled a.Serve.req in
          (t + Circuit.t_count c, q + twoq c))
        (0, 0) burst
    in
    { ok; t_count = t; twoq = q; circuits = Array.length burst;
      attribute = (fun () -> replay cfg burst summary) }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* [round]: the operations over which gate counts are averaged and after
   which peak memory is read, so that runs of any speed compare the same
   work (the plan cache and the GC heap grow with the number of
   operations run). *)
type workload = { make : int -> int -> result; round : int }

let workloads =
  [ ("paper_flow", { make = paper_flow; round = 512 });
    ("noisy_wide", { make = noisy_wide; round = 4 });
    ("sv_wide", { make = sv_wide; round = 4 });
    ("serve_mix", { make = serve_mix; round = 32 }) ]

let setup_min_reps = 5
let setup_budget_s = 0.25

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* One closed-loop run. [ops] holds (wall start, wall end, benchmark
   clock duration) per operation, latest first. *)
type run = {
  mutable ops : (float * float * float) list;
  mutable round_rss_mb : float;
  mutable attempted : int;
  mutable failed : int;
  mutable t_sum : int;
  mutable q_sum : int;
  mutable circuits : int;
  mutable wall : float * float;
}

(* Every operation is attempted whole; the loop stops at the first
   operation boundary past [seconds]. *)
let run_loop op ~seconds ~traced ~round =
  let r =
    { ops = []; round_rss_mb = nan; attempted = 0; failed = 0; t_sum = 0; q_sum = 0;
      circuits = 0; wall = (0., 0.) }
  in
  let wall0 = now () and start = clock () in
  while clock () -. start < seconds do
    let i = r.attempted in
    op_id := i;
    let h0, m0 = if traced then cache_totals () else (0, 0) in
    let w0 = now () and c0 = clock () in
    let res =
      try layer "bench.op" (fun () -> op i)
      with e ->
        let ok = check false (Printf.sprintf "operation %d raised %s" i (Printexc.to_string e)) in
        { ok; t_count = 0; twoq = 0; circuits = 0; attribute = ignore }
    in
    r.ops <- (w0, now (), clock () -. c0) :: r.ops;
    if traced then begin
      let h1, m1 = cache_totals () in
      count "cache.hits" (float_of_int (h1 - h0));
      count "cache.misses" (float_of_int (m1 - m0));
      res.attribute ()
    end;
    r.attempted <- r.attempted + 1;
    if r.attempted = round then r.round_rss_mb <- peak_rss_mb ();
    if not res.ok then r.failed <- r.failed + 1;
    if round = 0 || r.attempted <= round then begin
      r.t_sum <- r.t_sum + res.t_count;
      r.q_sum <- r.q_sum + res.twoq;
      r.circuits <- r.circuits + res.circuits
    end
  done;
  r.wall <- (wall0, now ());
  r

(* Operation times in seconds, raw and scaled by the meter. *)
let raw_times r = List.map (fun (_, _, d) -> d) r.ops
let scaled_times r = List.map (fun (a, b, d) -> d *. scale ~within:r.wall a b) r.ops
let rate times = float_of_int (List.length times) /. List.fold_left ( +. ) 0. times

let mean_reference (a, b) =
  Option.value ~default:nan (reference_between a b)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           unit)
       ms)

(* One JSON line per span: wall start and end, self time, and the self
   time scaled like every other reported time. *)
let write_spans path ~within =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\": %S, \"op\": %d, \"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, \
         \"scaled_self_s\": %.9f}\n"
        s.name s.op s.w0 s.w1 s.self
        (s.self *. scale ~within s.w0 s.w1))
    (List.rev !spans);
  close_out oc

(* Self time per operation of every layer, from the recorded spans (each
   scaled by the meter's reading around it), and the counts recorded
   beside them. *)
let per_layer ~(traced : run) ~span_cost =
  let ops = float_of_int traced.attempted in
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace self s.name
        ((s.self *. scale ~within:traced.wall s.w0 s.w1)
        +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    !spans;
  let total name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let ms name = 1e3 *. total name /. ops in
  let cnt name = Option.value ~default:0. (Hashtbl.find_opt counts name) in
  let per_op name = cnt name /. ops in
  let ratio a b = if b > 0. then a /. b else 0. in
  let direct =
    List.fold_left
      (fun acc n -> acc +. ms n)
      0.
      [ "flow.compile"; "backend.statevector"; "backend.noisy"; "backend.qasm";
        "backend.stabilizer" ]
  in
  let timed name = (name ^ "_ms", ms name, "ms") in
  let counter name = (name, per_op name, "count") in
  let traced_times = scaled_times traced in
  let raw = raw_times traced in
  let raw_op = List.fold_left ( +. ) 0. raw /. ops in
  let spans_per_op = float_of_int (List.length !spans) /. ops in
  [ timed "engine.build"; timed "rev.synth"; timed "qc.cliffordt"; timed "qc.tpar";
    timed "qc.peephole"; counter "qc.gates_lowered"; counter "qc.gates_final";
    ("qc.t_count_mean", ratio (float_of_int traced.t_sum) (float_of_int traced.circuits), "gates");
    counter "cache.hits"; counter "cache.misses";
    timed "qc.noise";
    ("qc.noise.shot_ms", 1e3 *. ratio (total "qc.noise") (cnt "qc.noise.shots"), "ms");
    counter "qc.noise.gate_applications"; timed "qc.sv.run"; timed "qc.sv.init";
    timed "qc.sv.plan_build"; timed "qc.sv.plan_execute"; timed "qc.sv.sampler";
    counter "qc.sv.plan_kernels";
    ("serve.request_ms", 1e3 *. ratio (total "serve.run") (cnt "serve.requests"), "ms");
    counter "serve.compiles"; counter "serve.coalesce_hits"; counter "serve.rounds";
    timed "flow.compile"; timed "backend.statevector"; timed "backend.noisy";
    timed "backend.qasm"; timed "backend.stabilizer";
    ("serve.overhead_ms", (if total "serve.run" > 0. then ms "serve.run" -. direct else 0.), "ms");
    ("bench.other_ms", ms "bench.op", "ms");
    ("bench.op_ms", 1e3 *. List.fold_left ( +. ) 0. traced_times /. ops, "ms");
    ("bench.op_ms_p90", 1e3 *. quantile 0.9 traced_times, "ms");
    ("bench.trace_overhead_pct",
     100. *. spans_per_op *. span_cost /. (raw_op -. (spans_per_op *. span_cost)), "%");
    ("bench.raw_op_ms", 1e3 *. raw_op, "ms");
    ("bench.raw_op_ms_p50", 1e3 *. median raw, "ms");
    ("bench.reference_us", 1e6 *. mean_reference traced.wall, "us") ]

(* Cost of recording one span, measured on empty calls; the calibration
   spans are dropped again. *)
let span_cost () =
  let n = 20000 and kept = !spans in
  let t0 = clock () in
  for _ = 1 to n do
    layer "bench.calibration" ignore
  done;
  let cost = (clock () -. t0) /. float_of_int n in
  spans := kept;
  cost

let usage () =
  prerr_endline
    "usage: main.exe --workload paper_flow|noisy_wide|sv_wide|serve_mix --seed N \
     --seconds S --trace 0|1 [--inject LAYER:FRACTION] [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := int_of_string t;
        parse rest
    | "--spans" :: f :: rest ->
        spans_out := f;
        parse rest
    | "--inject" :: spec :: rest ->
        (match String.split_on_char ':' spec with
        | [ l; x ] -> inject := Some (l, float_of_string x)
        | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.) then usage ();
  Par.set_default_jobs 1;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample_reference ()));
  set_meter meter_period;
  (* Every set-up starts from empty caches. The run uses the first one;
     untraced runs time it again after the run, so that the discarded
     repetitions weigh neither on the run nor on its peak memory. *)
  let setup () =
    Cache.clear_memory ();
    Sv.clear_plan_cache ();
    let c0 = clock () in
    let op = w.make !seed in
    (clock () -. c0, op)
  in
  let _, op = setup () in
  (* Set-up is timed at least [setup_min_reps] times and until
     [setup_budget_s] has been spent in it; each repetition is scaled by
     the meter's mean reading over all of them, as one is often shorter
     than the meter's period. *)
  let time_setups () =
    let rec go times reps spent =
      if reps >= setup_min_reps && spent >= setup_budget_s then times
      else
        let d, _ = setup () in
        go (d :: times) (reps + 1) (spent +. d)
    in
    let wall0 = now () in
    let times = go [] 0 0. in
    let wall1 = now () in
    (median times, scale ~within:(wall0, wall1) wall0 wall1, mean_reference (wall0, wall1))
  in
  let metrics, raw, r =
    if !trace = 0 then begin
      let r = run_loop op ~seconds:!seconds ~traced:false ~round:w.round in
      let rss = if Float.is_nan r.round_rss_mb then peak_rss_mb () else r.round_rss_mb in
      let setup_raw, setup_scale, setup_ref = time_setups () in
      set_meter 0.;
      let ms = List.map (fun t -> 1e3 *. t) (scaled_times r) in
      ( [ ("setup_s", setup_raw *. setup_scale, "s"); ("ops_per_s", rate (scaled_times r), "1/s");
          ("op_ms_p50", median ms, "ms"); ("peak_rss_mb", rss, "MB");
          ("twoq_count_mean", float_of_int r.q_sum /. float_of_int (max 1 r.circuits), "gates") ],
        [ ("raw setup_s", setup_raw, "s");
          ("setup reference_us", 1e6 *. setup_ref, "us");
          ("raw ops_per_s", rate (raw_times r), "1/s");
          ("raw op_ms_p50", 1e3 *. median (raw_times r), "ms");
          ("reference_us", 1e6 *. mean_reference r.wall, "us") ],
        r )
    end
    else begin
      tracing := true;
      let traced = run_loop op ~seconds:!seconds ~traced:true ~round:0 in
      let span_cost = span_cost () in
      tracing := false;
      set_meter 0.;
      if !spans_out <> "" then write_spans !spans_out ~within:traced.wall;
      ( per_layer ~traced ~span_cost, [], traced )
    end
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %14.6f %s\n" name v unit) (metrics @ raw);
  Printf.printf "attempted %d failed %d reference samples %d\n" r.attempted r.failed !n_samples;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = 0) r.attempted r.failed (json_metrics metrics)
