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
    with their telemetry, and measurement (sampling, CDF construction,
    state comparisons). A circuit runs one of two ways: as a cached plan
    (the default), or gate by gate ([~fuse:false], the unfused
    reference, and every state narrower than {!fuse_min_qubits}).

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

(* Shared by run/run_on: plan replay (default), the unfused reference
   (~fuse:false, and every state below fuse_min_qubits), and the
   telemetry both entry points must emit — [run_on] used to bypass it,
   under-counting qc.statevector.gates_applied for engine-driven
   simulation. *)
let exec ~fuse s circuit =
  if fuse && s.n >= fuse_min_qubits then begin
    let p = plan_of_circuit circuit in
    Plan.execute p s;
    if Obs.enabled () then
      Obs.count ~by:(Array.length p.Plan.ops) "qc.statevector.fused_ops"
  end
  else Circuit.iter (apply s) circuit;
  if Obs.enabled () then begin
    Obs.count ~by:(Circuit.num_gates circuit) "qc.statevector.gates_applied";
    Obs.add_attrs [ ("qubits", Obs.Int s.n) ]
  end

(** [run ?fuse circuit] simulates [circuit] from |0…0⟩. [fuse] (default
    true) replays the circuit's cached kernel plan on states of
    ≥ {!fuse_min_qubits} qubits; [~fuse:false] applies the gates one by
    one. The two agree up to float rounding (≤ 1e-12 per amplitude in
    practice). *)
let run ?(fuse = true) circuit =
  Obs.with_span "qc.statevector.run" @@ fun () ->
  let s = init (Circuit.num_qubits circuit) in
  exec ~fuse s circuit;
  s

(** [run_on ?fuse s circuit] applies [circuit] to an existing state in
    place, with the same span and counters as {!run}. *)
let run_on ?(fuse = true) s circuit =
  if Circuit.num_qubits circuit <> s.n then invalid_arg "Statevector.run_on";
  Obs.with_span "qc.statevector.run" @@ fun () -> exec ~fuse s circuit

(** [probabilities s] is the outcome distribution over basis states.
    Materializes all [2^n] floats — callers that only need a few entries
    should stream {!prob} instead. *)
let probabilities s = Array.init (size s) (prob s)

(* --- measurement sampling --- *)

(** A precomputed cumulative distribution for repeated sampling from one
    state: build once ([O(2^n)]), then each draw is a binary search
    ([O(n)]) instead of a linear scan — the shape a multi-shot noiseless
    sampling loop wants. The CDF mirrors the state's slab layout so a
    26-qubit sampler never asks for a single contiguous GB. *)
type sampler = { sb : int; smask : int; cdf : float array array }

(* CDF fill over global range [lo, hi) starting from a known running
   total: one accumulator walks the slab pieces in ascending global
   order, so the summation order is the same for every slab size. *)
let seg_cdf s (cdf : float array array) off lo hi =
  let acc = [| off |] in
  iter_pieces s lo hi (fun sl _base lo_l hi_l ->
      let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
      let c = cdf.(sl) in
      for x = lo_l to hi_l - 1 do
        acc.(0) <-
          acc.(0)
          +. (Array.unsafe_get re x *. Array.unsafe_get re x)
          +. (Array.unsafe_get im x *. Array.unsafe_get im x);
        Array.unsafe_set c x acc.(0)
      done)

(** [sampler s] precomputes the cumulative distribution of [s]. Large
    states build it in parallel with the same fixed-block determinism as
    {!norm2}: per-block totals, a sequential exclusive prefix over the
    (fixed-count) blocks, then a parallel fill of each block from its
    offset — bit-identical at any [--jobs] and any shard layout. *)
let sampler s =
  let sz = size s in
  let cdf =
    Array.init (slab_count s) (fun _ -> Array.make (slab_size s) 0.)
  in
  if sz <= par_threshold then seg_cdf s cdf 0. 0 sz
  else begin
    let k = reduce_blocks in
    let parts =
      Par.map_floats (Par.global ()) ~tasks:k (fun i ->
          seg_sum2 s (sz * i / k) (sz * (i + 1) / k))
    in
    let offs = Array.make k 0. in
    for i = 1 to k - 1 do
      offs.(i) <- offs.(i - 1) +. parts.(i - 1)
    done;
    Par.run_tasks (Par.global ())
      (Array.init k (fun i () ->
           seg_cdf s cdf offs.(i) (sz * i / k) (sz * (i + 1) / k)))
  end;
  { sb = s.sb; smask = s.smask; cdf }

(** [sample_with smp st] draws one outcome: the first basis state whose
    cumulative probability exceeds the uniform draw — bit-identical to
    the linear scan of {!sample}, in [O(n)] per shot. *)
let sample_with smp st =
  let r = Random.State.float st 1. in
  let get x = smp.cdf.(x lsr smp.sb).(x land smp.smask) in
  let sz = Array.length smp.cdf * (smp.smask + 1) in
  let lo = ref 0 and hi = ref (sz - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get mid > r then hi := mid else lo := mid + 1
  done;
  !lo

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
