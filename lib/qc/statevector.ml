(** Dense state-vector simulator — the execution façade.

    The implementation is layered into three modules this file stitches
    together (all part of the wrapped [Qc] library, so external callers
    only ever see [Qc.Statevector]):

    - {!Sv_shard} — sharded amplitude storage: split re/im float slabs,
      the shard-bits heuristic and [--shard-bits] override, the
      allocation guard ({!Unsupported} + [DAUTOQ_SV_MAX_QUBITS]), and
      the global-index accessors;
    - {!Sv_kernels} — per-gate kernels written once against a slab (a
      flat state is one slab), the chunk driver that spreads them over
      the pool, and deterministic slab-ordered reductions;
    - {!Sv_plan} (exposed as {!Plan}) — compile-once execution plans:
      block fusion, the commuting-block peepholes, and replay with
      slab-local / cross-slab kernel classification.

    This file owns what sits above the kernels: the LRU plan cache
    (capacity via [DAUTOQ_PLAN_CACHE]), the [run]/[run_on] entry points
    with their telemetry, and measurement (sampling from a strided
    table of running sums, state comparisons). A circuit runs one of two
    ways: as a cached plan (the default), or gate by gate
    ([~fuse:false], the unfused reference, and every state narrower than
    {!fuse_min_qubits}). Both ends of a planned [run] cost what they
    must: it allocates its state already past the plan's leading
    Hadamard layer, and a {!sampler} keeps every 64th running sum
    rather than a [2^n] table.

    Determinism contract (PR 3/PR 8, extended to shards): for a fixed
    circuit and seed, amplitudes, sampler draws and histograms are
    bit-identical for {e any} [--jobs] value and {e any} shard-bits
    setting. Parallel loops write disjoint slabs or disjoint index
    chunks; reductions sum in a fixed order that never depends on pool
    width or slab size. *)

include Sv_kernels
module Plan = Sv_plan

(* --- plan cache and execution entry points --- *)

(* Plans are pure functions of the circuit, cached by structural key so
   multi-shot sampling, runs_statistics and device retries build once
   and replay. Bounded LRU (a tick per entry, bumped on hit; eviction
   drops the smallest tick), mutex-guarded for safety if a
   worker-domain caller ever simulates. *)
let default_plan_cache_capacity = 64

(** [plan_cache_capacity ()] is the cache bound: [DAUTOQ_PLAN_CACHE]
    when set to a positive integer, else 64. Read dynamically so the
    shell and tests can adjust it without a rebuild. *)
let plan_cache_capacity () =
  match Sys.getenv_opt "DAUTOQ_PLAN_CACHE" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> n
      | _ -> default_plan_cache_capacity)
  | None -> default_plan_cache_capacity

let plan_cache : (string, Plan.t * int ref) Hashtbl.t = Hashtbl.create 32
let plan_tick = ref 0
let plan_evictions = ref 0
let plan_mutex = Mutex.create ()

(** [clear_plan_cache ()] drops every cached plan and resets the
    recency clock and eviction count (benchmarks use this to measure
    cold builds). *)
let clear_plan_cache () =
  Mutex.lock plan_mutex;
  Hashtbl.reset plan_cache;
  plan_tick := 0;
  plan_evictions := 0;
  Mutex.unlock plan_mutex

(** [plan_cache_stats ()] is [(size, capacity, evictions)] — surfaced
    by the shell's [stats] command. *)
let plan_cache_stats () =
  Mutex.lock plan_mutex;
  let r = (Hashtbl.length plan_cache, plan_cache_capacity (), !plan_evictions) in
  Mutex.unlock plan_mutex;
  r

(* Evict least-recently-used entries until one slot is free. O(size)
   scan per eviction — fine at a capacity of tens. *)
let evict_lru_locked cap =
  while Hashtbl.length plan_cache >= cap do
    let victim = ref None in
    Hashtbl.iter
      (fun key (_, tick) ->
        match !victim with
        | Some (_, t) when t <= !tick -> ()
        | _ -> victim := Some (key, !tick))
      plan_cache;
    match !victim with
    | Some (key, _) ->
        Hashtbl.remove plan_cache key;
        incr plan_evictions;
        if Obs.enabled () then Obs.count "sv.plan.evict"
    | None -> assert false (* length > 0 *)
  done

(** [plan_of_circuit circuit] returns the cached plan for [circuit],
    building (and caching) it on first sight. Cache hits count
    [sv.plan.replay] and refresh the entry's recency. *)
let plan_of_circuit circuit =
  let key = Circuit.structural_key circuit in
  Mutex.lock plan_mutex;
  let hit = Hashtbl.find_opt plan_cache key in
  (match hit with
  | Some (_, tick) ->
      incr plan_tick;
      tick := !plan_tick
  | None -> ());
  Mutex.unlock plan_mutex;
  match hit with
  | Some (p, _) ->
      if Obs.enabled () then Obs.count "sv.plan.replay";
      p
  | None ->
      let p = Plan.build circuit in
      Mutex.lock plan_mutex;
      if not (Hashtbl.mem plan_cache key) then begin
        evict_lru_locked (plan_cache_capacity ());
        incr plan_tick;
        Hashtbl.add plan_cache key (p, ref !plan_tick)
      end;
      Mutex.unlock plan_mutex;
      p

(* Telemetry both entry points emit ([run_on] used to bypass it,
   under-counting qc.statevector.gates_applied for engine-driven
   simulation). *)
let count_gates s circuit =
  if Obs.enabled () then begin
    Obs.count ~by:(Circuit.num_gates circuit) "qc.statevector.gates_applied";
    Obs.add_attrs [ ("qubits", Obs.Int s.n) ]
  end

(* Plan replay from kernel [start] on. *)
let replay p s start =
  Plan.execute_from p s start;
  if Obs.enabled () then
    Obs.count ~by:(Array.length p.Plan.ops) "qc.statevector.fused_ops"

(** [run ?fuse circuit] simulates [circuit] from |0…0⟩. [fuse] (default
    true) replays the circuit's cached kernel plan on states of
    ≥ {!fuse_min_qubits} qubits; [~fuse:false] applies the gates one by
    one. The two agree up to float rounding (≤ 1e-12 per amplitude in
    practice).

    A planned run starts at the plan's first Hadamard layer: the
    leading kernels {!Plan.hadamard_prefix} names are not replayed, the
    state is allocated holding what they leave ({!init_cube}), bit for
    bit the same as {!init} followed by {!Plan.execute}. *)
let run ?(fuse = true) circuit =
  Obs.with_span "qc.statevector.run" @@ fun () ->
  let n = Circuit.num_qubits circuit in
  let s =
    if fuse && n >= fuse_min_qubits then begin
      check_width n;
      let p = plan_of_circuit circuit in
      let start, mask, rounds = Plan.hadamard_prefix p in
      let v = ref 1. in
      for _ = 1 to rounds do
        v := sqrt2inv *. !v
      done;
      let s = init_cube n ~mask !v in
      replay p s start;
      s
    end
    else begin
      let s = init n in
      Circuit.iter (apply s) circuit;
      s
    end
  in
  count_gates s circuit;
  s

(** [run_on ?fuse s circuit] applies [circuit] to an existing state in
    place, with the same span and counters as {!run}. *)
let run_on ?(fuse = true) s circuit =
  if Circuit.num_qubits circuit <> s.n then invalid_arg "Statevector.run_on";
  Obs.with_span "qc.statevector.run" @@ fun () ->
  if fuse && s.n >= fuse_min_qubits then replay (plan_of_circuit circuit) s 0
  else Circuit.iter (apply s) circuit;
  count_gates s circuit

(** [probabilities s] is the outcome distribution over basis states.
    Materializes all [2^n] floats — callers that only need a few entries
    should stream {!prob} instead. *)
let probabilities s = Array.init (size s) (prob s)

(* --- measurement sampling --- *)

(* log2 of the sampler's stride: it keeps every 64th running sum *)
let stride_bits = 6

(** A strided cumulative distribution for repeated sampling from one
    state: build once ([O(2^n)]), then each draw is a binary search over
    every 64th running sum and a rescan of at most 64 amplitudes. The
    table is [2^(n-6)] floats plus the running sum before each reduce
    block; the sums in between are read again from the state, so the
    state must not change while its sampler is in use. *)
type sampler = {
  state : t;
  sbits : int; (* log2 stride: stride_bits, or n on narrower states *)
  ends : float array; (* ends.(j): running sum through index (j+1)·2^sbits − 1 *)
  bbits : int; (* log2 reduce-block width: n when the sum is one run *)
  boffs : float array; (* boffs.(i): running sum before block i *)
}

(* Running sum over global range [lo, hi), a multiple of the stride,
   from a known total: one accumulator walks the slab pieces in
   ascending global order (the summation order is the same for every
   slab size), and the sum at each stride's last index lands in [ends]. *)
let seg_ends s (ends : float array) sbits off lo hi =
  let acc = [| off |] in
  let last = (1 lsl sbits) - 1 in
  iter_pieces s lo hi (fun sl base lo_l hi_l ->
      let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
      let a = ref acc.(0) in
      for x = lo_l to hi_l - 1 do
        a :=
          !a
          +. (Array.unsafe_get re x *. Array.unsafe_get re x)
          +. (Array.unsafe_get im x *. Array.unsafe_get im x);
        let gx = base lor x in
        if gx land last = last then Array.unsafe_set ends (gx lsr sbits) !a
      done;
      acc.(0) <- !a)

(** [sampler s] precomputes the strided cumulative distribution of [s].
    Large states build it in parallel with the same fixed-block
    determinism as {!norm2}: per-block totals, a sequential exclusive
    prefix over the (fixed-count) blocks, then a parallel pass over each
    block from its offset — bit-identical at any [--jobs] and any shard
    layout. A stride never crosses a block, so the sums within one rise
    monotonically. *)
let sampler s =
  let sz = size s in
  let sbits = min stride_bits s.n in
  let ends = Array.create_float (sz lsr sbits) in
  if sz <= par_threshold then begin
    seg_ends s ends sbits 0. 0 sz;
    { state = s; sbits; ends; bbits = s.n; boffs = [| 0. |] }
  end
  else begin
    let k = reduce_blocks in
    let parts =
      Par.map_floats (Par.global ()) ~tasks:k (fun i ->
          seg_sum2 s (sz * i / k) (sz * (i + 1) / k))
    in
    let boffs = Array.make k 0. in
    for i = 1 to k - 1 do
      boffs.(i) <- boffs.(i - 1) +. parts.(i - 1)
    done;
    Par.run_tasks (Par.global ())
      (Array.init k (fun i () ->
           seg_ends s ends sbits boffs.(i) (sz * i / k) (sz * (i + 1) / k)));
    { state = s; sbits; ends; bbits = ceil_log2 (sz / k); boffs }
  end

(* The running sum before stride [j]: its block's offset at a block
   start, else the end of stride [j - 1]. *)
let stride_start smp j =
  let x0 = j lsl smp.sbits in
  if x0 land ((1 lsl smp.bbits) - 1) = 0 then smp.boffs.(x0 lsr smp.bbits)
  else smp.ends.(j - 1)

(** [cdf_at smp x] is the running sum of the probabilities through basis
    state [x], as the sampler sums them (the entry a full [2^n] table
    would hold at [x]). *)
let cdf_at smp x =
  let s = smp.state and j = x lsr smp.sbits in
  let acc = ref (stride_start smp j) in
  for y = j lsl smp.sbits to x do
    let r = get_re s y and i = get_im s y in
    acc := !acc +. (r *. r) +. (i *. i)
  done;
  !acc

(** [sample_at smp r] is the outcome for the uniform value [r]: the
    first basis state whose cumulative probability exceeds [r], or the
    last one — in [O(n)] plus a rescan of one stride.

    It is what a binary search over the full [2^n] table returns: with
    [lo = 0] and [hi = 2^n − 1] that search probes only indices
    ≡ −1 (mod 64), the entries of [ends], until its interval is one
    stride wide, and within the stride the sums rise monotonically, so
    the first one past [r] is the search's answer. *)
let sample_at smp r =
  let ends = smp.ends in
  let lo = ref 0 and hi = ref (Array.length ends - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get ends mid > r then hi := mid else lo := mid + 1
  done;
  let s = smp.state in
  let x = ref (!lo lsl smp.sbits) in
  let last = !x + (1 lsl smp.sbits) - 1 in
  (* the rescan reads the slab arrays directly, moving to the next slab
     only when a stride is wider than a slab *)
  let re = ref s.sl_re.(!x lsr s.sb) and im = ref s.sl_im.(!x lsr s.sb) in
  let l = ref (!x land s.smask) in
  let a = Array.unsafe_get !re !l and b = Array.unsafe_get !im !l in
  let acc = ref (stride_start smp !lo +. (a *. a) +. (b *. b)) in
  while !x < last && not (!acc > r) do
    incr x;
    l := !x land s.smask;
    if !l = 0 then begin
      re := s.sl_re.(!x lsr s.sb);
      im := s.sl_im.(!x lsr s.sb)
    end;
    let a = Array.unsafe_get !re !l and b = Array.unsafe_get !im !l in
    acc := !acc +. (a *. a) +. (b *. b)
  done;
  !x

(** [sample_with smp st] draws one outcome with PRNG state [st]: the
    {!sample_at} of its next uniform float. *)
let sample_with smp st = sample_at smp (Random.State.float st 1.)

(** [sample st s] draws one measurement outcome of all qubits using PRNG
    state [st]. One-shot form; for many draws from the same state build a
    {!sampler} once and use {!sample_with}. *)
let sample st s =
  let r = Random.State.float st 1. in
  let sz = size s in
  let acc = ref 0. and x = ref 0 and out = ref (sz - 1) in
  while !x < sz do
    acc := !acc +. prob s !x;
    if r < !acc then begin
      out := !x;
      x := sz
    end
    else incr x
  done;
  !out

(** [most_likely s] is the basis state with the largest probability
    (the first one on a tie). One pass over the slabs, each probability
    computed once. *)
let most_likely (s : t) =
  let best = ref 0 and best_p = ref (prob s 0) in
  for sl = 0 to slab_count s - 1 do
    let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
    let base = sl lsl s.sb in
    for x = 0 to slab_size s - 1 do
      let p = (re.(x) *. re.(x)) +. (im.(x) *. im.(x)) in
      if p > !best_p then begin
        best := base lor x;
        best_p := p
      end
    done
  done;
  !best

(** [equal_up_to_phase ?eps a b] holds when the states differ by at most a
    global phase: |⟨a|b⟩| ≈ 1. *)
let equal_up_to_phase ?(eps = 1e-9) a b =
  if a.n <> b.n then false
  else begin
    let dot_re = ref 0. and dot_im = ref 0. in
    for x = 0 to size a - 1 do
      (* ⟨a|b⟩ = Σ conj(a_x) b_x *)
      let ar = get_re a x and ai = get_im a x in
      let br = get_re b x and bi = get_im b x in
      dot_re := !dot_re +. (ar *. br) +. (ai *. bi);
      dot_im := !dot_im +. (ar *. bi) -. (ai *. br)
    done;
    let mag = sqrt ((!dot_re *. !dot_re) +. (!dot_im *. !dot_im)) in
    Float.abs (mag -. 1.) < eps
  end

(** [is_basis_state ?eps s x] holds when the state is (up to phase) exactly
    the computational basis state [x]. *)
let is_basis_state ?(eps = 1e-9) s x = Float.abs (prob s x -. 1.) < eps
