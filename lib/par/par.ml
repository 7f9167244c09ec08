(** A reusable domain pool — the multicore execution runtime.

    OCaml 5 gives us true parallelism through [Domain], but domains are
    heavyweight (each carries a minor heap), so the hot paths must share a
    small, long-lived pool rather than spawning per call. This module
    hand-rolls that pool on [Domain]/[Mutex]/[Condition] — no external
    dependencies — and exposes the three primitives the simulators use:

    - {!run_tasks} — execute a batch of closures, caller participating;
    - {!parallel_for} — chunk an index range over the pool;
    - {!map_reduce} — map over task indices, reduce {e in index order}
      (so reductions are deterministic regardless of worker count).

    Determinism contract: none of these primitives reorder work
    observably. [parallel_for] is only handed bodies with disjoint
    writes, and [map_reduce] folds results left-to-right by task index,
    so a pool of any size computes bit-identical results to [jobs = 1].

    Nesting: a worker that calls back into the pool (e.g. a parallel
    shot whose state-vector kernel would also like to parallelize) runs
    the nested batch sequentially on its own domain — no deadlock, no
    oversubscription. *)

type pool = {
  jobs : int; (* total parallelism, caller included *)
  m : Mutex.t;
  cv : Condition.t; (* signalled when work arrives or on shutdown *)
  q : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Workers flip this flag in their domain-local storage; batch submission
   checks it to degrade to sequential execution inside a worker. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker p () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock p.m;
    while Queue.is_empty p.q && not p.stop do
      Condition.wait p.cv p.m
    done;
    if Queue.is_empty p.q then Mutex.unlock p.m (* stopping and drained *)
    else begin
      let task = Queue.pop p.q in
      Mutex.unlock p.m;
      task ();
      loop ()
    end
  in
  loop ()

(** [create jobs] builds a pool of total width [jobs] (clamped to ≥ 1):
    the calling domain plus [jobs - 1] spawned workers. *)
let create jobs =
  let jobs = max 1 jobs in
  let p =
    { jobs; m = Mutex.create (); cv = Condition.create (); q = Queue.create ();
      stop = false; workers = [] }
  in
  if jobs > 1 then p.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker p));
  p

(** [size p] is the pool's total parallelism (caller included). *)
let size p = p.jobs

(** [shutdown p] stops and joins every worker. Idempotent. *)
let shutdown p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.cv;
  Mutex.unlock p.m;
  List.iter Domain.join p.workers;
  p.workers <- []

(** [run_tasks p tasks] executes every closure, distributing them over the
    pool; the calling domain runs its share too. Returns when all tasks
    have finished.

    Exception contract: a raising task never aborts the batch. Every
    other task still runs to completion, the queue drains fully, and
    only then is the {e first} exception (in completion order; later
    ones are dropped) re-raised on the calling domain. Because the batch
    always drains, a raising batch leaves no task queued and no worker
    blocked — the pool stays fully reusable for subsequent batches
    ([parallel_for] and [map_reduce] inherit this). Called from inside a
    pool worker, the batch runs sequentially instead. *)
let run_tasks p (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  if n = 0 then ()
  else if n = 1 || p.jobs = 1 || Domain.DLS.get in_worker then
    Array.iter (fun t -> t ()) tasks
  else begin
    let bm = Mutex.create () and bcv = Condition.create () in
    let pending = ref n and first_exn = ref None in
    let wrap t () =
      (try t ()
       with e ->
         Mutex.lock bm;
         if !first_exn = None then first_exn := Some e;
         Mutex.unlock bm);
      Mutex.lock bm;
      decr pending;
      if !pending = 0 then Condition.signal bcv;
      Mutex.unlock bm
    in
    Mutex.lock p.m;
    for i = 1 to n - 1 do
      Queue.push (wrap tasks.(i)) p.q
    done;
    Condition.broadcast p.cv;
    Mutex.unlock p.m;
    wrap tasks.(0) ();
    (* help drain the queue rather than idling until the workers finish *)
    let rec help () =
      Mutex.lock p.m;
      if Queue.is_empty p.q then Mutex.unlock p.m
      else begin
        let task = Queue.pop p.q in
        Mutex.unlock p.m;
        task ();
        help ()
      end
    in
    help ();
    Mutex.lock bm;
    while !pending > 0 do
      Condition.wait bcv bm
    done;
    Mutex.unlock bm;
    match !first_exn with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Cancellation                                                        *)
(* ------------------------------------------------------------------ *)

(** A cancellation token: a cross-domain flag consulted between task
    chunks. Cancellation is cooperative — a task that has already
    started always runs to completion (the pool never interrupts a
    domain); tasks that have not yet begun are skipped once the token
    is set. *)
type cancel = bool Atomic.t

let cancel_token () : cancel = Atomic.make false
let cancel (t : cancel) = Atomic.set t true
let cancelled (t : cancel) = Atomic.get t

(** [run_tasks_cancellable p token tasks] is {!run_tasks} with checked
    cancellation: the token is consulted immediately before each task
    starts, and once set every not-yet-started task is skipped. Returns
    the number of tasks that actually ran. The {!run_tasks} exception
    contract is unchanged — a raising task neither aborts nor cancels
    the batch; the queue still drains (running or skipping every
    remaining task) and the first exception re-raises afterwards, so
    the pool stays reusable. Determinism: a token set {e before}
    submission skips every task at any pool width; a token set
    concurrently races task starts, so the skipped set is only
    reproducible at [jobs = 1] (the serve layer cancels strictly before
    submission for exactly this reason). *)
let run_tasks_cancellable p (token : cancel) (tasks : (unit -> unit) array) =
  let ran = Atomic.make 0 in
  run_tasks p
    (Array.map
       (fun t () ->
         if not (Atomic.get token) then begin
           Atomic.incr ran;
           t ()
         end)
       tasks);
  Atomic.get ran

(** [parallel_for p ?chunks ~start ~stop body] runs [body lo hi] over a
    partition of [\[start, stop)] (default: one chunk per pool slot).
    The caller guarantees the chunks write disjoint locations; under that
    contract the result is identical for any pool size. *)
let parallel_for p ?chunks ~start ~stop body =
  let n = stop - start in
  if n > 0 then begin
    let k = max 1 (min n (match chunks with Some c -> c | None -> p.jobs)) in
    if k = 1 then body start stop
    else
      run_tasks p
        (Array.init k (fun i () ->
             let lo = start + (n * i / k) and hi = start + (n * (i + 1) / k) in
             if lo < hi then body lo hi))
  end

(** [map_floats p ~tasks f] fills a float array with [f i] for every task
    index, the tasks running over the pool. The partition is fixed by
    [tasks] (never by pool width), so callers that chunk a reduction into
    [tasks] blocks get the {e same} per-block partials — and therefore
    the same combined float sum — for any [--jobs] value. The result
    array is unboxed; each task writes one disjoint slot. *)
let map_floats p ~tasks f =
  if tasks <= 0 then [||]
  else begin
    let out = Array.make tasks 0. in
    run_tasks p (Array.init tasks (fun i () -> out.(i) <- f i));
    out
  end

(** [tree_sum parts] combines float partials in a fixed pairwise-tree
    order, in place (stride doubling:
    (((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7)))+…). The summation order is a
    pure function of [Array.length parts], never of the pool width, so
    reductions built on it are bit-identical at any [--jobs]. *)
let tree_sum (parts : float array) =
  let n = Array.length parts in
  if n = 0 then 0.
  else begin
    let stride = ref 1 in
    while !stride < n do
      let i = ref 0 in
      while !i + !stride < n do
        parts.(!i) <- parts.(!i) +. parts.(!i + !stride);
        i := !i + (2 * !stride)
      done;
      stride := 2 * !stride
    done;
    parts.(0)
  end

(** [sum_blocks p ~blocks seg] is the deterministic parallel sum: [seg i]
    produces block [i]'s left-to-right partial (the caller fixes the
    block partition independently of pool width — e.g. the statevector's
    256 fixed global-index blocks, each walking its slabs in global
    order), and the partials combine via {!tree_sum}. *)
let sum_blocks p ~blocks seg =
  if blocks <= 0 then 0. else tree_sum (map_floats p ~tasks:blocks seg)

(** [map_reduce p ~tasks ~map ~reduce ~init] computes
    [reduce (… (reduce init (map 0)) …) (map (tasks - 1))] with the maps
    running in parallel and the reduction folded strictly in index order
    on the calling domain — deterministic for any pool size. *)
let map_reduce p ~tasks ~map ~reduce ~init =
  if tasks <= 0 then init
  else begin
    let results = Array.make tasks None in
    run_tasks p (Array.init tasks (fun i () -> results.(i) <- Some (map i)));
    Array.fold_left
      (fun acc r -> match r with Some v -> reduce acc v | None -> acc)
      init results
  end

(* ------------------------------------------------------------------ *)
(* The process-wide pool and the --jobs knob                           *)
(* ------------------------------------------------------------------ *)

(** [recommended ()] is the runtime's suggested domain count (#cores). *)
let recommended () = Domain.recommended_domain_count ()

let default_jobs_ref = ref 0 (* 0 = follow [recommended] *)

(** [default_jobs ()] is the process-wide worker count: the value of the
    last {!set_default_jobs} (the [--jobs] flag), else {!recommended}. *)
let default_jobs () = if !default_jobs_ref > 0 then !default_jobs_ref else recommended ()

let global_pool = ref None

let shutdown_global () =
  match !global_pool with
  | Some p ->
      global_pool := None;
      shutdown p
  | None -> ()

let () = at_exit shutdown_global

(** [global ()] is the shared lazily-created pool of {!default_jobs}
    width — the pool behind the state-vector kernels. Only the main
    domain may call it (workers never re-enter the pool). *)
let global () =
  match !global_pool with
  | Some p -> p
  | None ->
      let p = create (default_jobs ()) in
      global_pool := Some p;
      p

(** [set_default_jobs n] pins the process-wide worker count (the [--jobs]
    flag and the shell's [jobs] command land here) and recycles the
    global pool so the new width takes effect. *)
let set_default_jobs n =
  default_jobs_ref := max 1 n;
  shutdown_global ()

(** [with_pool ~jobs f] hands [f] a pool of at least width [jobs]: the
    global pool when it is already wide enough, otherwise a temporary
    pool that is shut down when [f] returns. *)
let with_pool ~jobs f =
  let jobs = max 1 jobs in
  let g = global () in
  if g.jobs >= jobs then f g
  else begin
    let p = create jobs in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
  end
