(** The multi-tenant compile service — the long-lived front end over the
    existing building blocks ({!Core.Flow} compilation, {!Device}
    execution, the {!Par} domain pool, the synthesis caches) that stays
    correct and responsive when demand exceeds capacity.

    Requests (spec + pipeline + backend + shots + per-request deadline)
    arrive from many tenants as a timestamped trace and run through:

    - {b admission control} — per-tenant bounded queues with explicit
      backpressure verdicts ([Accepted | Queued of depth | Shed of
      reason]), so a flood from one tenant can never wedge the pool;
    - {b fair-share scheduling} — deficit round robin over the tenants
      with per-tenant weights, earliest-deadline-first ordering inside
      each tenant queue, and deadline-expired jobs cancelled (via
      {!Par.run_tasks_cancellable} tokens) with a [Deadline_exceeded]
      verdict instead of running to completion;
    - {b request coalescing} — concurrent requests with the same
      {!Core.Flow.spec_key} (and pipeline/backend/shots) share one
      compilation + execution; every subscriber gets the identical
      result (or the identical failure) exactly once, and the NPN/XAG
      caches dedupe the synthesis work behind temporal repeats;
    - {b graceful degradation} — a load-shedding ladder driven by
      queue-depth watermarks: level 1 drops the optional passes
      (T-par, peephole), level 2 downgrades execution (statevector →
      stabilizer where the circuit is Clifford; noisy shot counts cut),
      level 3 sheds new arrivals from the lowest-weight tenants. Device
      outages surface through the PR-5 circuit breaker as [Degraded]
      verdicts, never as stalls.

    Determinism contract: scheduling runs on a {e virtual clock} — a
    discrete-event loop whose admission, dispatch, deadline and ladder
    decisions depend only on the arrival trace, the per-request cost
    model and the service seed, never on wall-clock time or [--jobs].
    Real compilation/execution fans out over the domain pool (when no
    telemetry sink is attached — same rule as [Flow.compile_batch]),
    but every payload is a pure function of [(seed, leader job)], so
    the verdict set and all result payloads are bit-identical for any
    pool width. Wall-clock time is only ever {e reported} (jobs/sec).

    Telemetry: [serve.request], [serve.accept], [serve.queue],
    [serve.shed{,.queue_full,.overload,.unknown_tenant}],
    [serve.deadline], [serve.dispatch], [serve.compile],
    [serve.coalesce.hit], [serve.degrade.{passes,backend}],
    [serve.verdict.{validated,degraded}], per-tenant
    [serve.tenant.<name>.{admitted,shed}] counters, and
    [serve.{queue_wait,latency}.us] (+ per-tenant latency) histograms. *)

module Flow = Core.Flow
module Shell = Core.Shell
module Pass = Core.Pass
module Backend = Qc.Backend
module Noise = Qc.Noise

exception Bad_tenant of string
(** The tenant/queue spec is malformed; the message names the token. *)

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_tenant s)) fmt

(* ------------------------------------------------------------------ *)
(* Tenants                                                             *)
(* ------------------------------------------------------------------ *)

type tenant = {
  name : string;
  weight : int; (* DRR share: credit per scheduler round (>= 1) *)
  capacity : int; (* bounded queue depth; beyond it arrivals shed *)
}

let tenant ?(weight = 1) ?(capacity = 32) name =
  if String.trim name = "" then bad "tenant: empty name";
  if weight < 1 then bad "tenant %s: weight %d < 1" name weight;
  if capacity < 1 then bad "tenant %s: capacity %d < 1" name capacity;
  { name = String.trim name; weight; capacity }

(** [tenants_of_spec spec] parses a tenant roster:
    [name\[:w=W\]\[:cap=C\]] entries separated by [;], where [w] and
    [cap] may also share one [:] segment separated by [,] — e.g.
    ["alpha:w=4,cap=48;beta:w=2;gamma"]. Raises {!Bad_tenant} naming
    the offending token. *)
let tenants_of_spec spec =
  let spec = String.trim spec in
  if spec = "" then bad "empty tenant spec";
  let parse_one chunk =
    match String.split_on_char ':' (String.trim chunk) with
    | [] | [ "" ] -> bad "tenant: empty entry in %s" spec
    | name :: params ->
        let weight = ref 1 and capacity = ref 32 in
        List.iter
          (fun seg ->
            List.iter
              (fun kv ->
                match String.split_on_char '=' (String.trim kv) with
                | [ "w"; v ] -> (
                    match int_of_string_opt v with
                    | Some w when w >= 1 -> weight := w
                    | _ -> bad "tenant %s: w=%s (expected an integer >= 1)" name v)
                | [ "cap"; v ] -> (
                    match int_of_string_opt v with
                    | Some c when c >= 1 -> capacity := c
                    | _ -> bad "tenant %s: cap=%s (expected an integer >= 1)" name v)
                | _ -> bad "tenant %s: unknown parameter %s (known: w=, cap=)" name kv)
              (String.split_on_char ',' seg))
          params;
        tenant ~weight:!weight ~capacity:!capacity name
  in
  let ts =
    String.split_on_char ';' spec |> List.map String.trim
    |> List.filter (fun c -> c <> "")
    |> List.map parse_one
  in
  if ts = [] then bad "empty tenant spec";
  let names = List.map (fun t -> t.name) ts in
  if List.length (List.sort_uniq compare names) <> List.length names then
    bad "duplicate tenant name in %s" spec;
  ts

let tenant_to_string t = Printf.sprintf "%s:w=%d,cap=%d" t.name t.weight t.capacity

(* ------------------------------------------------------------------ *)
(* Requests, admission and verdicts                                    *)
(* ------------------------------------------------------------------ *)

(** One compile+execute request. [backend] is a unified backend family
    name ([statevector | stabilizer | noisy | qasm]); [pipeline]
    optionally pins an explicit pass-pipeline spec (pinned pipelines are
    exempt from the ladder's pass-dropping). [deadline_us] is the
    virtual end-to-end budget measured from arrival. *)
type request = {
  tenant : string;
  spec : Flow.spec;
  pipeline : string option;
  backend : string;
  shots : int;
  deadline_us : float;
}

(** One point of an open-loop arrival trace ([at_us] nondecreasing). *)
type arrival = { at_us : float; req : request }

module Admission = struct
  (** The backpressure verdict admission control hands back. *)
  type t = Accepted | Queued of int | Shed of string

  let to_string = function
    | Accepted -> "accepted"
    | Queued d -> Printf.sprintf "queued@%d" d
    | Shed r -> "shed:" ^ r
end

(** The terminal verdict of every request — nothing hangs, nothing is
    dropped silently. *)
type verdict =
  | Validated
  | Degraded of string
  | Shed of string
  | Deadline_exceeded

let verdict_class = function
  | Validated -> "validated"
  | Degraded _ -> "degraded"
  | Shed _ -> "shed"
  | Deadline_exceeded -> "deadline"

let verdict_to_string = function
  | Validated -> "validated"
  | Degraded r -> "degraded (" ^ r ^ ")"
  | Shed r -> "shed (" ^ r ^ ")"
  | Deadline_exceeded -> "deadline-exceeded"

(** The service record of one request, in arrival order. [leader] is
    the job id whose single execution produced the payload ([= jid]
    unless the request coalesced onto another); [head_rounds] counts
    scheduler rounds the job spent at the head of its tenant queue
    without being affordable (the DRR starvation bound is over this). *)
type job_result = {
  jid : int;
  tenant : string;
  admission : Admission.t;
  verdict : verdict;
  queue_wait_us : float;
  latency_us : float;
  head_rounds : int;
  leader : int;
  payload : string;
}

(* ------------------------------------------------------------------ *)
(* Service configuration and the deterministic cost model              *)
(* ------------------------------------------------------------------ *)

type config = {
  tenants : tenant list;
  quantum_us : float; (* DRR credit per weight unit per round *)
  watermarks : float * float * float; (* ladder levels 1/2/3 as fractions
                                         of aggregate queue capacity *)
  faults : Device.profile option; (* wrap noisy execution in a resilient
                                     device with this fault profile *)
  seed : int; (* seeds per-job execution (and device fault streams) *)
}

let default_config ~tenants =
  { tenants; quantum_us = 500.; watermarks = (0.5, 0.75, 0.9); faults = None;
    seed = 0xA11CE }

(* The virtual service-time model: a pure function of the request, in
   µs of virtual time. It does not need to match wall time — it only
   needs to be deterministic and monotone in request size, so that
   admission/fairness/deadline dynamics are reproducible. *)
let spec_cost = function
  | Flow.Perm_spec p -> 60. +. (10. *. float_of_int (Logic.Perm.size p))
  | Flow.Fn_spec fs ->
      60.
      +. 12.
         *. float_of_int
              (List.fold_left (fun acc tt -> acc + Logic.Truth_table.size tt) 0 fs)
  | Flow.Xag_spec g -> 50. +. (6. *. float_of_int (Rev.Xag.num_nodes g))

let backend_family b = fst (Backend.split_spec b)

let request_cost r =
  spec_cost r.spec
  +.
  if backend_family r.backend = "noisy" then 0.5 *. float_of_int (max 0 r.shots)
  else 25.

(* ------------------------------------------------------------------ *)
(* The shedding ladder                                                 *)
(* ------------------------------------------------------------------ *)

(* Ladder level from aggregate queue depth vs. aggregate capacity. *)
let ladder_level cfg ~depth ~capacity =
  let w1, w2, w3 = cfg.watermarks in
  let f = float_of_int depth /. float_of_int (max 1 capacity) in
  if f >= w3 then 3 else if f >= w2 then 2 else if f >= w1 then 1 else 0

(* ------------------------------------------------------------------ *)
(* One request's compile + execute (the work a dispatch group shares)   *)
(* ------------------------------------------------------------------ *)

let job_seed cfg jid =
  Int64.to_int
    (Noise.splitmix64
       (Int64.add
          (Int64.mul (Int64.of_int cfg.seed) Noise.golden)
          (Int64.of_int (jid + 1))))
  land max_int

let payload_of_outcome = function
  | Backend.Exported text -> "exported:" ^ Digest.to_hex (Digest.string text)
  | o -> Backend.outcome_to_string o

(* Compile under the ladder: level >= 1 drops the optional passes
   (T-par, peephole) unless the request pinned an explicit pipeline. *)
let compile_request ~level (req : request) =
  let base =
    if level >= 1 && req.pipeline = None then
      { Flow.default with Flow.tpar = false; peephole = false }
    else Flow.default
  in
  let options =
    match req.spec with
    | Flow.Fn_spec _ -> { base with Flow.synth = Flow.Esop }
    | Flow.Perm_spec _ | Flow.Xag_spec _ -> base
  in
  let pipeline = Option.map Pass.parse req.pipeline in
  let dropped = level >= 1 && req.pipeline = None in
  let circuit, _report =
    match req.spec with
    | Flow.Perm_spec p -> Flow.compile_perm ~options ?pipeline p
    | Flow.Fn_spec fs -> Flow.compile_function ~options ?pipeline fs
    | Flow.Xag_spec g -> Flow.compile_xag ~options ?pipeline g
  in
  (circuit, dropped)

(* Execute under the ladder: level >= 2 downgrades where valid —
   statevector drops to the polynomial stabilizer backend when the
   compiled circuit is Clifford, and noisy shot counts are cut. *)
let execute_request ~cfg ~level ~leader_jid ~budget_us (req : request) =
  let notes = ref [] in
  let note m = notes := !notes @ [ m ] in
  try
    let circuit, dropped = compile_request ~level req in
    if dropped then note "ladder: optional passes dropped";
    let family = backend_family req.backend in
    let family, shots =
      if level >= 2 then
        if family = "statevector" && Qc.Sim.clifford circuit
        then begin
          note "ladder: downgraded statevector to stabilizer";
          ("stabilizer", req.shots)
        end
        else if family = "noisy" && req.shots > 16 then begin
          note (Printf.sprintf "ladder: shots cut %d to 16" req.shots);
          (family, 16)
        end
        else (family, req.shots)
      else (family, req.shots)
    in
    let seed = job_seed cfg leader_jid in
    let outcome, backend_verdict =
      match (family, cfg.faults) with
      | "noisy", Some profile ->
          (* a per-job device instance: device state (breaker, attempt
             counter) is order-dependent, so sharing one across a
             parallel batch would break the determinism contract. The
             fault stream reseeds per job; the remaining virtual
             deadline becomes the device's wall-clock budget. *)
          let profile =
            { profile with
              Device.fault_seed =
                profile.Device.fault_seed lxor (0x5E12 * (leader_jid + 1)) }
          in
          let policy =
            { Device.default_policy with
              Device.deadline = 24; max_retries = 4; batches = 4 }
          in
          let d =
            Device.create ~policy ~profile ~fallbacks:[ Device.statevector ]
              (Device.noisy Noise.ibm_qx2017)
          in
          let job = Device.submit ~shots ~seed ~budget_us d circuit in
          (Device.outcome_of_job job, Some job.Device.verdict)
      | "noisy", None ->
          (Flow.execute (Backend.noisy ~seed ~shots Noise.ibm_qx2017) circuit, None)
      | _ -> (Flow.execute (Backend.of_spec family) circuit, None)
    in
    let payload = payload_of_outcome outcome in
    let verdict =
      match backend_verdict with
      | None | Some Backend.Validated ->
          if !notes = [] then Validated else Degraded (String.concat "; " !notes)
      | Some (Backend.Degraded r) ->
          Degraded (String.concat "; " (!notes @ [ "device: " ^ r ]))
      | Some (Backend.Failed r) ->
          Degraded (String.concat "; " (!notes @ [ "device failed: " ^ r ]))
    in
    (payload, verdict)
  with
  | Backend.Unsupported m | Failure m | Invalid_argument m ->
      (* the identical failure is what every coalesced subscriber gets *)
      ("error:" ^ m, Degraded ("execute failed: " ^ m))

(* ------------------------------------------------------------------ *)
(* The virtual-clock scheduler                                         *)
(* ------------------------------------------------------------------ *)

type queued_job = {
  jid : int;
  req : request;
  admission : Admission.t;
  arrived_us : float;
  cost_us : float;
  mutable head_rounds : int;
}

type tstate = {
  t : tenant;
  mutable q : queued_job list; (* earliest (arrival + deadline) first *)
  mutable depth : int;
  mutable deficit : float;
  mutable peak_depth : int;
  mutable admitted : int;
  mutable shed : int;
}

(* One coalescing group of a dispatch batch: the leader executes once,
   every member subscribes to the same payload/verdict. *)
type group = {
  leader : queued_job;
  mutable members : queued_job list; (* reverse batch order *)
  token : Par.cancel;
  mutable completion_us : float;
  mutable outcome : (string * verdict) option;
}

(** Per-tenant accounting of one {!run}. *)
type tenant_row = {
  row_tenant : tenant;
  row_admitted : int;
  row_shed : int;
  row_peak_depth : int;
}

(** The result of one {!run}: every request's terminal record (arrival
    order) plus the aggregate accounting the bench and the shell report. *)
type summary = {
  results : job_result array;
  tenant_rows : tenant_row list;
  virtual_us : float; (* final virtual clock *)
  wall_us : float; (* real elapsed time (reporting only) *)
  rounds : int;
  compiles : int; (* group-leader executions *)
  coalesce_hits : int; (* requests that rode another's execution *)
  n_validated : int;
  n_degraded : int;
  n_shed : int;
  n_deadline : int;
  shed_queue_full : int;
  shed_overload : int;
  shed_unknown : int;
}

let coalesce_key ~level (r : request) =
  String.concat "|"
    [ Flow.spec_key r.spec;
      (match r.pipeline with None -> "-" | Some p -> p);
      backend_family r.backend; string_of_int r.shots;
      string_of_int (min level 2) ]

(** [run ?jobs cfg arrivals] plays an arrival trace through the service
    and returns every request's terminal record. Pure discrete-event
    simulation on the virtual clock for all scheduling decisions; real
    execution fans group leaders over a pool of width [jobs] (default
    {!Par.default_jobs}) when no telemetry sink is attached. Raises
    {!Bad_tenant} on an invalid roster; arrivals must be sorted by
    [at_us]. *)
let run ?jobs cfg (arrivals : arrival list) : summary =
  if cfg.tenants = [] then bad "no tenants configured";
  if not (cfg.quantum_us > 0.) then bad "quantum_us must be positive";
  let names = List.map (fun t -> t.name) cfg.tenants in
  if List.length (List.sort_uniq compare names) <> List.length names then
    bad "duplicate tenant name";
  let wall0 = Unix.gettimeofday () in
  let jobs = match jobs with Some j -> max 1 j | None -> Par.default_jobs () in
  let tstates =
    List.map
      (fun t ->
        { t; q = []; depth = 0; deficit = 0.; peak_depth = 0; admitted = 0;
          shed = 0 })
      cfg.tenants
  in
  let by_name = Hashtbl.create 8 in
  List.iter (fun ts -> Hashtbl.replace by_name ts.t.name ts) tstates;
  let total_capacity = List.fold_left (fun acc t -> acc + t.capacity) 0 cfg.tenants in
  let min_weight = List.fold_left (fun acc t -> min acc t.weight) max_int cfg.tenants in
  let arrivals = Array.of_list arrivals in
  let n = Array.length arrivals in
  let results : job_result option array = Array.make n None in
  let now = ref 0. and next_arrival = ref 0 in
  let queued_total = ref 0 and rounds = ref 0 in
  let compiles = ref 0 and coalesce_hits = ref 0 in
  let shed_queue_full = ref 0 and shed_overload = ref 0 and shed_unknown = ref 0 in

  let record jid (r : job_result) =
    assert (results.(jid) = None);
    results.(jid) <- Some r
  in
  let record_shed jid (arr : arrival) reason counter =
    incr counter;
    Obs.count "serve.shed";
    Obs.count ("serve.shed." ^ reason);
    record jid
      { jid; tenant = arr.req.tenant; admission = Admission.Shed reason;
        verdict = Shed reason; queue_wait_us = 0.; latency_us = 0.;
        head_rounds = 0; leader = jid; payload = "" }
  in

  (* EDF insertion: earliest (arrival + deadline) first, ties by jid. *)
  let edf_insert q j =
    let due j = j.arrived_us +. j.req.deadline_us in
    let rec ins = function
      | [] -> [ j ]
      | x :: rest ->
          if due j < due x || (due j = due x && j.jid < x.jid) then j :: x :: rest
          else x :: ins rest
    in
    ins q
  in

  let admit jid (arr : arrival) =
    Obs.count "serve.request";
    match Hashtbl.find_opt by_name arr.req.tenant with
    | None -> record_shed jid arr "unknown_tenant" shed_unknown
    | Some ts ->
        let level = ladder_level cfg ~depth:!queued_total ~capacity:total_capacity in
        if level >= 3 && ts.t.weight = min_weight then begin
          ts.shed <- ts.shed + 1;
          Obs.count ("serve.tenant." ^ ts.t.name ^ ".shed");
          record_shed jid arr "overload" shed_overload
        end
        else if ts.depth >= ts.t.capacity then begin
          ts.shed <- ts.shed + 1;
          Obs.count ("serve.tenant." ^ ts.t.name ^ ".shed");
          record_shed jid arr "queue_full" shed_queue_full
        end
        else begin
          let admission =
            if ts.depth = 0 then Admission.Accepted else Admission.Queued ts.depth
          in
          (match admission with
          | Admission.Accepted -> Obs.count "serve.accept"
          | _ -> Obs.count "serve.queue");
          let j =
            { jid; req = arr.req; admission; arrived_us = arr.at_us;
              cost_us = request_cost arr.req; head_rounds = 0 }
          in
          ts.q <- edf_insert ts.q j;
          ts.depth <- ts.depth + 1;
          ts.peak_depth <- max ts.peak_depth ts.depth;
          ts.admitted <- ts.admitted + 1;
          Obs.count ("serve.tenant." ^ ts.t.name ^ ".admitted");
          incr queued_total
        end
  in
  let admit_due () =
    while !next_arrival < n && arrivals.(!next_arrival).at_us <= !now do
      admit !next_arrival arrivals.(!next_arrival);
      incr next_arrival
    done
  in

  (* One DRR round: credit every backlogged tenant, drain every head the
     tenant can afford. Unaffordable heads accrue one head_round (the
     starvation-bound observable). *)
  let drr_round () =
    incr rounds;
    let dispatched = ref [] in
    List.iter
      (fun ts ->
        if ts.q <> [] then begin
          ts.deficit <- ts.deficit +. (cfg.quantum_us *. float_of_int ts.t.weight);
          let rec take () =
            match ts.q with
            | j :: rest when j.cost_us <= ts.deficit ->
                ts.deficit <- ts.deficit -. j.cost_us;
                ts.q <- rest;
                ts.depth <- ts.depth - 1;
                decr queued_total;
                dispatched := j :: !dispatched;
                take ()
            | j :: _ -> j.head_rounds <- j.head_rounds + 1
            | [] -> ts.deficit <- 0. (* standard DRR: idle queues hold no credit *)
          in
          take ()
        end)
      tstates;
    List.rev !dispatched
  in

  let finish_batch level batch =
    (* group the batch by coalescing key, in dispatch order *)
    let tbl : (string, group) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun j ->
        let key = coalesce_key ~level j.req in
        match Hashtbl.find_opt tbl key with
        | Some g -> g.members <- j :: g.members
        | None ->
            let g =
              { leader = j; members = [ j ]; token = Par.cancel_token ();
                completion_us = nan; outcome = None }
            in
            Hashtbl.add tbl key g;
            order := g :: !order)
      batch;
    let groups = List.rev !order in
    (* Deadline pass, before any execution: walk groups in dispatch
       order on the virtual clock; a group whose every subscriber would
       already have expired by its completion time is cancelled via its
       token (charging no virtual time), never run. Live groups advance
       the clock by the leader's cost — coalesced subscribers ride for
       free. Everything here is decided before submission, so the
       cancelled set is identical at any pool width. *)
    let cursor = ref !now in
    List.iter
      (fun g ->
        let completion = !cursor +. g.leader.cost_us in
        let live =
          List.exists
            (fun j -> j.arrived_us +. j.req.deadline_us >= completion)
            g.members
        in
        if live then begin
          g.completion_us <- completion;
          cursor := completion
        end
        else Par.cancel g.token)
      groups;
    let batch_token = Par.cancel_token () in
    if List.for_all (fun g -> Par.cancelled g.token) groups then
      Par.cancel batch_token;
    let dispatch_now = !now in
    let garr = Array.of_list groups in
    let tasks =
      Array.map
        (fun g () ->
          if not (Par.cancelled g.token) then begin
            let budget_us =
              Float.max 0.
                (g.leader.arrived_us +. g.leader.req.deadline_us -. dispatch_now)
            in
            g.outcome <-
              Some
                (execute_request ~cfg ~level ~leader_jid:g.leader.jid ~budget_us
                   g.leader.req)
          end)
        garr
    in
    (* parallel only without a telemetry sink — the Obs recorder is not
       domain-safe (same rule as Flow.compile_batch); results are
       bit-identical either way *)
    if jobs > 1 && Array.length tasks > 1 && not (Obs.enabled ()) then
      Par.with_pool ~jobs (fun pool ->
          ignore (Par.run_tasks_cancellable pool batch_token tasks))
    else if not (Par.cancelled batch_token) then Array.iter (fun t -> t ()) tasks;
    now := !cursor;
    (* settle every subscriber *)
    List.iter
      (fun g ->
        let members = List.rev g.members in
        let executed = g.outcome <> None in
        if executed then begin
          incr compiles;
          Obs.count "serve.compile";
          coalesce_hits := !coalesce_hits + (List.length members - 1);
          if List.length members > 1 then
            Obs.count ~by:(List.length members - 1) "serve.coalesce.hit"
        end;
        List.iter
          (fun j ->
            Obs.count "serve.dispatch";
            let due = j.arrived_us +. j.req.deadline_us in
            let queue_wait = dispatch_now -. j.arrived_us in
            Obs.observe "serve.queue_wait.us" queue_wait;
            if (not executed) || due < g.completion_us then begin
              (* cancelled with the token, or the group's shared result
                 lands past this subscriber's deadline *)
              Obs.count "serve.deadline";
              record j.jid
                { jid = j.jid; tenant = j.req.tenant; admission = j.admission;
                  verdict = Deadline_exceeded; queue_wait_us = queue_wait;
                  latency_us = queue_wait; head_rounds = j.head_rounds;
                  leader = g.leader.jid; payload = "" }
            end
            else begin
              let payload, verdict = Option.get g.outcome in
              let latency = g.completion_us -. j.arrived_us in
              Obs.observe "serve.latency.us" latency;
              Obs.observe ("serve.tenant." ^ j.req.tenant ^ ".latency.us") latency;
              Obs.count ("serve.verdict." ^ verdict_class verdict);
              (match verdict with
              | Degraded r
                when String.length r >= 6 && String.sub r 0 6 = "ladder" ->
                  Obs.count "serve.degrade.passes"
              | _ -> ());
              record j.jid
                { jid = j.jid; tenant = j.req.tenant; admission = j.admission;
                  verdict; queue_wait_us = queue_wait; latency_us = latency;
                  head_rounds = j.head_rounds; leader = g.leader.jid; payload }
            end)
          members)
      groups
  in

  (* the discrete-event loop: admit everything due, run DRR rounds while
     backlogged, jump the clock to the next arrival when idle *)
  while !next_arrival < n || !queued_total > 0 do
    if !queued_total = 0 && !next_arrival < n && arrivals.(!next_arrival).at_us > !now
    then now := arrivals.(!next_arrival).at_us;
    admit_due ();
    if !queued_total > 0 then begin
      let level = ladder_level cfg ~depth:!queued_total ~capacity:total_capacity in
      let batch = drr_round () in
      if batch <> [] then finish_batch level batch
      (* an empty round only accrues deficit; heads become affordable
         within ceil(cost / (quantum * weight)) rounds, so the loop
         always terminates *)
    end
  done;

  let results =
    Array.mapi
      (fun i -> function
        | Some r -> r
        | None -> failwith (Printf.sprintf "serve: request %d never settled" i))
      results
  in
  let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 results in
  { results;
    tenant_rows =
      List.map
        (fun ts ->
          { row_tenant = ts.t; row_admitted = ts.admitted; row_shed = ts.shed;
            row_peak_depth = ts.peak_depth })
        tstates;
    virtual_us = !now;
    wall_us = (Unix.gettimeofday () -. wall0) *. 1e6;
    rounds = !rounds; compiles = !compiles; coalesce_hits = !coalesce_hits;
    n_validated = count (fun r -> r.verdict = Validated);
    n_degraded = count (fun r -> match r.verdict with Degraded _ -> true | _ -> false);
    n_shed = count (fun r -> match r.verdict with Shed _ -> true | _ -> false);
    n_deadline = count (fun r -> r.verdict = Deadline_exceeded);
    shed_queue_full = !shed_queue_full; shed_overload = !shed_overload;
    shed_unknown = !shed_unknown }

(* ------------------------------------------------------------------ *)
(* Summary projections                                                 *)
(* ------------------------------------------------------------------ *)

let stats_opt xs =
  match xs with [] -> None | _ -> Some (Obs.Summary.stats_of_samples xs)

(** Queue-wait samples (virtual µs) of every scheduled request —
    everything that was admitted, including deadline-exceeded jobs. *)
let queue_wait_samples s =
  Array.to_list s.results
  |> List.filter_map (fun r ->
         match r.verdict with
         | Shed _ -> None
         | Validated | Degraded _ | Deadline_exceeded -> Some r.queue_wait_us)

(** End-to-end latency samples (virtual µs) of every delivered result. *)
let latency_samples s =
  Array.to_list s.results
  |> List.filter_map (fun r ->
         match r.verdict with
         | Validated | Degraded _ -> Some r.latency_us
         | Shed _ | Deadline_exceeded -> None)

(** [results_digest s] is an MD5 over every per-request record — jid,
    tenant, admission, verdict (with reasons), virtual timings and the
    full payload — so byte-comparing two digests compares {e
    everything} the service produced. *)
let results_digest s =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (r : job_result) ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%s|%s|%s|%.3f|%.3f|%d|%s\n" r.jid r.tenant
           (Admission.to_string r.admission)
           (verdict_to_string r.verdict)
           r.queue_wait_us r.latency_us r.leader r.payload))
    s.results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pct_line name = function
  | None -> Printf.sprintf "%s: no samples" name
  | Some (st : Obs.Summary.hist_stats) ->
      Printf.sprintf "%s: p50 %.1fus p99 %.1fus (n=%d, virtual)" name
        st.Obs.Summary.p50 st.Obs.Summary.p99 st.Obs.Summary.n

(** [summary_lines s] renders the deterministic service report — every
    line is a pure function of the trace and the seed (no wall-clock),
    so two runs (or two [--jobs] values) must agree byte-for-byte. *)
let summary_lines s =
  let delivered = s.n_validated + s.n_degraded in
  [ Printf.sprintf "requests %d  rounds %d  virtual %.1fms"
      (Array.length s.results) s.rounds (s.virtual_us /. 1e3);
    Printf.sprintf "verdicts: validated %d  degraded %d  shed %d  deadline %d"
      s.n_validated s.n_degraded s.n_shed s.n_deadline;
    Printf.sprintf "sheds: queue_full %d  overload %d  unknown_tenant %d"
      s.shed_queue_full s.shed_overload s.shed_unknown;
    Printf.sprintf "coalesce: %d hits over %d compiles (hit rate %.3f)"
      s.coalesce_hits s.compiles
      (float_of_int s.coalesce_hits
      /. float_of_int (max 1 (s.coalesce_hits + s.compiles)));
    pct_line "queue-wait" (stats_opt (queue_wait_samples s));
    pct_line "latency" (stats_opt (latency_samples s)) ]
  @ List.map
      (fun row ->
        Printf.sprintf "tenant %-8s w=%d cap=%-3d admitted %-4d shed %-4d peak-depth %d"
          row.row_tenant.name row.row_tenant.weight row.row_tenant.capacity
          row.row_admitted row.row_shed row.row_peak_depth)
      s.tenant_rows
  @ [ Printf.sprintf "delivered %d  results digest %s" delivered (results_digest s) ]

(* ------------------------------------------------------------------ *)
(* The open-loop load generator                                        *)
(* ------------------------------------------------------------------ *)

module Load = struct
  (** An open-loop mixed workload: [requests] Poisson arrivals (counter-
      based splitmix64 draws — replayable) over a pool of Perm/Fn/Xag
      specs and backend families, at [rate] times the modelled service
      capacity ([rate > 1] is sustained overload). *)
  type t = {
    requests : int;
    tenants : tenant list;
    seed : int;
    rate : float;
    shots : int;
    deadline_scale : float;
    faults : Device.profile option;
  }

  let default_tenants =
    tenants_of_spec "alpha:w=4,cap=48;beta:w=2,cap=32;gamma:w=1,cap=24;delta:w=1,cap=16"

  let default =
    { requests = 1000; tenants = default_tenants; seed = 0xA11CE; rate = 3.0;
      shots = 48; deadline_scale = 1.0; faults = None }

  (* counter-based uniform in [0,1): splitmix64 of (seed, index, salt) *)
  let u ~seed ~i ~salt =
    let open Int64 in
    let x =
      add (mul (of_int (seed lxor (salt * 0x01000193))) Noise.golden) (of_int i)
    in
    let z = Noise.splitmix64 (add (Noise.splitmix64 x) (of_int (salt + 1))) in
    Int64.to_float (shift_right_logical z 11) /. 9007199254740992.

  (* the mixed spec pool: small enough that every family statevector-
     simulates, varied enough that coalescing is partial, not total *)
  let spec_pool : Flow.spec array Lazy.t =
    lazy
      [| Flow.Perm_spec (Logic.Funcgen.hwb 3);
         Flow.Perm_spec (Logic.Funcgen.hwb 4);
         Flow.Perm_spec (Logic.Perm.random (Random.State.make [| 41 |]) 3);
         Flow.Perm_spec (Logic.Perm.random (Random.State.make [| 42 |]) 3);
         Flow.Perm_spec (Logic.Perm.random (Random.State.make [| 43 |]) 4);
         Flow.Fn_spec [ Logic.Funcgen.majority 3 ];
         Flow.Fn_spec [ Logic.Funcgen.majority 5 ];
         Flow.Fn_spec [ Logic.Funcgen.threshold 4 2 ];
         Flow.Xag_spec (Rev.Arith.xag_adder 2);
         Flow.Xag_spec (Rev.Arith.xag_less_than_const 6 ~k:23);
         Flow.Xag_spec (Rev.Arith.xag_equals_const 8 ~k:170);
         Flow.Xag_spec (Rev.Arith.xag_add_equals 3) |]

  let pick_backend ~shots v =
    if v < 0.50 then ("statevector", 1)
    else if v < 0.80 then ("noisy", shots)
    else if v < 0.92 then ("qasm", 1)
    else ("stabilizer", 1) (* usually fails (T gates) — the shared-failure path *)

  (** [trace t] generates the arrival list. The interarrival mean is the
      pool's mean request cost divided by [rate], so [rate] is an
      overload multiple by construction. *)
  let trace t =
    if t.requests < 1 then bad "load: requests must be >= 1";
    if not (t.rate > 0.) then bad "load: rate must be positive";
    let pool = Lazy.force spec_pool in
    let tenants = Array.of_list t.tenants in
    let reqs =
      Array.init t.requests (fun i ->
          let spec = pool.(int_of_float (u ~seed:t.seed ~i ~salt:1 *. float_of_int (Array.length pool))) in
          let backend, shots = pick_backend ~shots:t.shots (u ~seed:t.seed ~i ~salt:2) in
          let tenant =
            tenants.(int_of_float
                       (u ~seed:t.seed ~i ~salt:3 *. float_of_int (Array.length tenants)))
          in
          { tenant = tenant.name; spec; pipeline = None; backend; shots;
            deadline_us = 0. (* filled below, off the mean cost *) })
    in
    let mean_cost =
      Array.fold_left (fun acc r -> acc +. request_cost r) 0. reqs
      /. float_of_int t.requests
    in
    let mean_ia = mean_cost /. t.rate in
    let at = ref 0. in
    Array.to_list
      (Array.mapi
         (fun i req ->
           at := !at +. (-.mean_ia *. log (1. -. (0.999999 *. u ~seed:t.seed ~i ~salt:4)));
           let deadline_us =
             mean_cost *. (4. +. (28. *. u ~seed:t.seed ~i ~salt:5)) *. t.deadline_scale
           in
           { at_us = !at; req = { req with deadline_us } })
         reqs)

  (** [run ?jobs t] — generate the trace and play it through the
      service. *)
  let run ?jobs t =
    let cfg = { (default_config ~tenants:t.tenants) with faults = t.faults; seed = t.seed } in
    run ?jobs cfg (trace t)

  let describe t =
    Printf.sprintf "load: %d requests, %d tenants, rate %.1fx, shots %d, seed %d%s"
      t.requests (List.length t.tenants) t.rate t.shots t.seed
      (match t.faults with
      | None -> ""
      | Some p -> ", faults " ^ p.Device.label)
end

(* ------------------------------------------------------------------ *)
(* Shell integration                                                   *)
(* ------------------------------------------------------------------ *)

let last_summary : summary option ref = ref None

let shell_command st args =
  let say fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string st.Shell.out s;
        Buffer.add_char st.Shell.out '\n')
      fmt
  in
  let usage =
    "serve: expected tenants <spec> | load <requests> <tenant-spec> [seed] [rate] \
     | stats | queues"
  in
  let need_summary () =
    match !last_summary with
    | Some s -> s
    | None -> raise (Shell.Error "serve: no load run yet (use serve load)")
  in
  let wrap f = try f () with Bad_tenant m -> raise (Shell.Error ("serve: " ^ m)) in
  (match args with
  | [ "tenants"; spec ] ->
      wrap (fun () ->
          List.iter (fun t -> say "%s" (tenant_to_string t)) (tenants_of_spec spec))
  | "load" :: requests :: spec :: rest ->
      wrap (fun () ->
          let int_arg name v =
            match int_of_string_opt v with
            | Some i -> i
            | None -> raise (Shell.Error (Printf.sprintf "serve load: bad %s %s" name v))
          in
          let seed, rate =
            match rest with
            | [] -> (Load.default.Load.seed, Load.default.Load.rate)
            | [ s ] -> (int_arg "seed" s, Load.default.Load.rate)
            | [ s; r ] -> (
                ( int_arg "seed" s,
                  match float_of_string_opt r with
                  | Some f when f > 0. -> f
                  | _ -> raise (Shell.Error ("serve load: bad rate " ^ r)) ))
            | _ -> raise (Shell.Error usage)
          in
          let t =
            { Load.default with
              Load.requests = int_arg "requests" requests;
              tenants = tenants_of_spec spec; seed; rate;
              faults =
                (match st.Shell.fault_profile with
                | p when p.Device.label = "none" -> None
                | p -> Some p) }
          in
          say "%s" (Load.describe t);
          let s = Load.run t in
          last_summary := Some s;
          List.iter (fun l -> say "%s" l) (summary_lines s))
  | [ "stats" ] ->
      List.iter (fun l -> say "%s" l) (summary_lines (need_summary ()))
  | [ "queues" ] ->
      let s = need_summary () in
      List.iter
        (fun row ->
          say "tenant %-8s w=%d cap=%-3d admitted %-4d shed %-4d peak-depth %d"
            row.row_tenant.name row.row_tenant.weight row.row_tenant.capacity
            row.row_admitted row.row_shed row.row_peak_depth)
        s.tenant_rows
  | _ -> raise (Shell.Error usage));
  st

(** [install_shell_command ()] registers the [serve] command into
    {!Core.Shell}'s extension table. Call once at CLI startup. *)
let install_shell_command () =
  Shell.register_command "serve"
    ~doc:
      "multi-tenant service: tenants <spec> | load <n> <tenant-spec> [seed] [rate] \
       | stats | queues"
    shell_command
