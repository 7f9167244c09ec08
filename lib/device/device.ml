(** The resilient device layer — the operational side of the paper's
    remote-backend story (Fig. 6).

    The paper's flow ends at the IBM Quantum Experience chip behind a
    cloud queue, where submissions time out, calibrations drift and shot
    batches get lost. {!Qc.Noise} reproduces the physics; this module
    reproduces the {e operations}: it wraps any execution target in a
    device with a declarative {!profile} of injected faults, and runs
    jobs through a hardened executor ({!submit}) with shot batching,
    capped exponential backoff, a per-device circuit breaker
    (closed/open/half-open, cooldown measured in attempts so tests are
    instant), partial-result salvage and an ordered fallback chain of
    backends.

    Determinism contract: every fault decision is a pure function of
    [(profile.fault_seed, absolute attempt index, decision salt)] through
    the same splitmix64 finalizer the noisy backend uses for per-shot
    seeding, and each batch's simulation seed derives from
    [(job seed, batch index)]. Nothing depends on wall-clock time,
    scheduling or [--jobs]; a job replays bit-identically from its
    seeds. Backoff delays are computed and recorded (the
    [device.backoff.us] histogram), never slept.

    Telemetry: [device.retry], [device.submit.fail], [device.timeout],
    [device.invalid], [device.shots.lost], [device.fallback],
    [device.breaker.{open,halfopen,close,skip}], [device.drift.flag],
    [device.budget.stop] counters, a [device.attempt] span per attempt,
    and a [device.submit] span per job.

    Besides the attempt-count deadline, {!submit} enforces a virtual
    wall-clock budget ([policy.budget_us], or the [?budget_us]
    override): attempt costs and backoff delays are charged to one
    meter shared across the whole fallback chain, so an upstream
    deadline composes — see {!submit}. *)

module Backend = Qc.Backend
module Circuit = Qc.Circuit
module Noise = Qc.Noise

exception Bad_profile of string
(** The fault-profile spec is malformed; the message names the token. *)

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_profile s)) fmt

(* ------------------------------------------------------------------ *)
(* Fault profiles                                                      *)
(* ------------------------------------------------------------------ *)

type profile = {
  label : string; (* the spec string, for display *)
  fault_seed : int; (* seeds the fault stream, not the shot stream *)
  submit_fail : float; (* probability a submission is rejected *)
  stuck : float; (* probability an accepted job hangs until its timeout *)
  shot_loss : float; (* probability a delivered batch comes up short *)
  corrupt : float; (* probability a delivered histogram is mangled *)
  drift : float; (* per-attempt calibration drift of the noise params *)
  outage : (int * int) option; (* (first attempt, length): a window of
                                  absolute device attempts that all fail *)
}

let none =
  { label = "none"; fault_seed = 0x5EED; submit_fail = 0.; stuck = 0.;
    shot_loss = 0.; corrupt = 0.; drift = 0.; outage = None }

let flaky = { none with label = "flaky"; submit_fail = 0.10; shot_loss = 0.05 }

(* The acceptance workload: >=10% transient submit failures, 5% shot
   loss, and one outage long enough to trip the default breaker
   (threshold 3) early in the job. *)
let hostile =
  { none with label = "hostile"; submit_fail = 0.15; stuck = 0.03;
    shot_loss = 0.05; corrupt = 0.03; drift = 0.01; outage = Some (2, 4) }

let preset_of_name = function
  | "none" -> Some none
  | "flaky" -> Some flaky
  | "hostile" -> Some hostile
  | _ -> None

let prob_param key v =
  match float_of_string_opt v with
  | Some f when f >= 0. && f <= 1. -> f
  | _ -> bad "%s: expected a probability in [0,1], got %s" key v

let nat_param key v =
  match int_of_string_opt v with
  | Some i when i >= 0 -> i
  | _ -> bad "%s: expected a non-negative integer, got %s" key v

(* outage=LEN@START (e.g. outage=4@2: four failing attempts starting at
   absolute attempt 2), or outage=off to clear a preset's window. *)
let outage_param v =
  if v = "off" then None
  else
    match String.split_on_char '@' v with
    | [ len; start ] ->
        Some (nat_param "outage start" start, max 1 (nat_param "outage length" len))
    | _ -> bad "outage: expected LEN@START or off, got %s" v

(** [profile_of_spec spec] parses a fault profile: a preset name
    ([none | flaky | hostile]) and/or comma-separated [key=value]
    overrides ([submit= stuck= loss= corrupt= drift= seed= outage=]).
    A leading preset is the base; overrides apply on top, e.g.
    ["hostile,loss=0.2"] or ["submit=0.3,outage=4@0"]. Raises
    {!Bad_profile} naming the offending token. *)
let profile_of_spec spec =
  let spec = String.trim spec in
  if spec = "" then bad "empty fault profile";
  let tokens =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let base, rest =
    match tokens with
    | t :: rest when not (String.contains t '=') -> (
        match preset_of_name t with
        | Some p -> (p, rest)
        | None -> bad "unknown fault preset %s (known: none, flaky, hostile)" t)
    | _ -> (none, tokens)
  in
  let p =
    List.fold_left
      (fun p tok ->
        match String.index_opt tok '=' with
        | None -> bad "fault profile: expected key=value, got %s" tok
        | Some i -> (
            let k = String.sub tok 0 i
            and v = String.sub tok (i + 1) (String.length tok - i - 1) in
            match k with
            | "submit" -> { p with submit_fail = prob_param k v }
            | "stuck" -> { p with stuck = prob_param k v }
            | "loss" -> { p with shot_loss = prob_param k v }
            | "corrupt" -> { p with corrupt = prob_param k v }
            | "drift" -> { p with drift = prob_param k v }
            | "seed" -> { p with fault_seed = nat_param k v }
            | "outage" -> { p with outage = outage_param v }
            | _ ->
                bad
                  "fault profile: unknown key %s (known: submit, stuck, loss, \
                   corrupt, drift, seed, outage)"
                  k))
      base rest
  in
  { p with label = spec }

let pp_profile ppf p =
  Fmt.pf ppf
    "%s (submit=%.2f stuck=%.2f loss=%.2f corrupt=%.2f drift=%.3f outage=%s seed=%d)"
    p.label p.submit_fail p.stuck p.shot_loss p.corrupt p.drift
    (match p.outage with
    | None -> "off"
    | Some (start, len) -> Printf.sprintf "%d@%d" len start)
    p.fault_seed

(* ------------------------------------------------------------------ *)
(* The deterministic fault stream                                      *)
(* ------------------------------------------------------------------ *)

(* Counter-based uniform draw in [0,1): splitmix64 of (fault seed,
   absolute attempt, per-decision salt). No mutable PRNG state anywhere
   in the fault path — the failure sequence is a pure function of
   (seed, attempt), independent of --jobs and of how many submits ran
   before (each submit advances the shared attempt counter). *)
let roll p ~attempt ~salt =
  let open Int64 in
  let x =
    add
      (mul (of_int (p.fault_seed lxor (salt * 0x01000193))) Noise.golden)
      (of_int attempt)
  in
  let z = Noise.splitmix64 (add (Noise.splitmix64 x) (of_int (salt + 1))) in
  Int64.to_float (shift_right_logical z 11) /. 9007199254740992. (* / 2^53 *)

let in_outage p a =
  match p.outage with
  | None -> false
  | Some (start, len) -> a >= start && a < start + len

(* ------------------------------------------------------------------ *)
(* Execution targets                                                   *)
(* ------------------------------------------------------------------ *)

(** A device-side execution target: runs one shot batch and returns the
    integer histogram [(outcome, count)] in ascending outcome order.
    [drift] scales the target's noise parameters (calibration-drift
    injection; noiseless targets ignore it), [seed] seeds the batch. *)
type target = {
  t_name : string;
  run_batch : drift:float -> seed:int -> shots:int -> Circuit.t -> (int * int) list;
}

(** [noisy ?jobs params] — the Monte-Carlo noisy backend as a target;
    the histogram is bit-identical for any [jobs] value. *)
let noisy ?jobs params =
  { t_name = "noisy";
    run_batch =
      (fun ~drift ~seed ~shots c ->
        let params = Noise.scale_params drift params in
        Noise.counts_to_alist (Noise.run_shots ~seed ?jobs params c ~shots)) }

(* Deterministically apportion [shots] over a frequency list by largest
   remainder (ties to the smaller outcome); totals exactly [shots]. *)
let apportion shots freqs =
  match freqs with
  | [] -> []
  | _ ->
      let floors =
        List.map
          (fun (x, f) ->
            let v = f *. float_of_int shots in
            (x, int_of_float (Float.floor v), v -. Float.floor v))
          freqs
      in
      let given = List.fold_left (fun acc (_, k, _) -> acc + k) 0 floors in
      let rest = max 0 (shots - given) in
      let order =
        List.sort
          (fun (x1, _, r1) (x2, _, r2) ->
            match Float.compare r2 r1 with 0 -> compare x1 x2 | c -> c)
          floors
      in
      List.mapi (fun i (x, k, _) -> (x, if i < rest then k + 1 else k)) order
      |> List.filter (fun (_, k) -> k > 0)
      |> List.sort compare

(** [of_backend b] lifts any unified backend into a target: measured
    outcomes put all shots on the outcome, histograms are apportioned
    over the frequencies. Export targets cannot execute shots. *)
let of_backend (b : Backend.t) =
  { t_name = b.Backend.name;
    run_batch =
      (fun ~drift:_ ~seed:_ ~shots c ->
        match b.Backend.run c with
        | Backend.Measured { outcome; _ } -> [ (outcome, shots) ]
        | Backend.Histogram freqs | Backend.Job { histogram = freqs; _ } ->
            apportion shots freqs
        | Backend.Exported _ ->
            Backend.failf "%s: an export target cannot execute shots"
              b.Backend.name) }

let statevector = of_backend Backend.statevector
let stabilizer = of_backend Backend.stabilizer

(* ------------------------------------------------------------------ *)
(* Executor policy and circuit breaker                                 *)
(* ------------------------------------------------------------------ *)

type policy = {
  max_retries : int; (* retry budget per shot batch *)
  deadline : int; (* total attempt budget per job (attempts, not seconds) *)
  breaker_threshold : int; (* consecutive primary failures that trip it *)
  cooldown : int; (* attempts the breaker stays open before a trial *)
  batches : int; (* shot batches per job (the salvage granularity) *)
  backoff_base_us : float;
  backoff_cap_us : float;
  budget_us : float; (* virtual wall-clock budget for the whole job,
                        spanning every attempt across the primary AND
                        the fallback chain (infinity = unlimited) *)
  attempt_us : float; (* modelled cost of one completed attempt *)
  stuck_us : float; (* modelled cost of an attempt that hangs to timeout *)
}

let default_policy =
  { max_retries = 8; deadline = 96; breaker_threshold = 3; cooldown = 4;
    batches = 8; backoff_base_us = 200.; backoff_cap_us = 20_000.;
    budget_us = infinity; attempt_us = 500.; stuck_us = 20_000. }

type breaker_state = Closed | Open of { since : int } | Half_open

type stats = {
  mutable submits : int;
  mutable attempts : int;
  mutable retries : int;
  mutable submit_fails : int;
  mutable timeouts : int;
  mutable invalid : int;
  mutable lost_shots : int;
  mutable fallback_batches : int;
  mutable breaker_opens : int;
  mutable breaker_skips : int;
  mutable drift_flags : int;
  mutable validated : int;
  mutable degraded : int;
  mutable failed : int;
}

type t = {
  d_name : string;
  primary : target;
  fallbacks : target list; (* ordered degradation chain *)
  profile : profile;
  policy : policy;
  default_shots : int;
  default_seed : int;
  mutable breaker : breaker_state;
  mutable consecutive_failures : int;
  mutable attempt_counter : int; (* absolute, shared across submits *)
  stats : stats;
}

(** [create ?policy ?fallbacks ?profile ?shots ?seed primary] wraps an
    execution target in a device. [fallbacks] is the ordered graceful-
    degradation chain used while the breaker is open; [profile] defaults
    to {!none} (no injected faults — the executor is then just batching
    plus validation). *)
let create ?(policy = default_policy) ?(fallbacks = []) ?(profile = none)
    ?(shots = 1024) ?(seed = 0xC0FFEE) primary =
  { d_name =
      String.concat " -> " (List.map (fun t -> t.t_name) (primary :: fallbacks));
    primary; fallbacks; profile; policy; default_shots = shots;
    default_seed = seed; breaker = Closed; consecutive_failures = 0;
    attempt_counter = 0;
    stats =
      { submits = 0; attempts = 0; retries = 0; submit_fails = 0; timeouts = 0;
        invalid = 0; lost_shots = 0; fallback_batches = 0; breaker_opens = 0;
        breaker_skips = 0; drift_flags = 0; validated = 0; degraded = 0;
        failed = 0 } }

let name d = d.d_name
let profile d = d.profile
let policy d = d.policy
let stats d = d.stats
let breaker d = d.breaker

let breaker_to_string d =
  match d.breaker with
  | Closed ->
      Printf.sprintf "closed (%d/%d consecutive failures)"
        d.consecutive_failures d.policy.breaker_threshold
  | Open { since } ->
      Printf.sprintf "open since attempt %d (cooldown %d attempts, now at %d)"
        since d.policy.cooldown d.attempt_counter
  | Half_open -> "half-open (next primary attempt is the trial)"

(** [of_spec ?policy ?profile spec] builds a device from a backend spec
    string (the [--target] grammar). A [noisy[:shots=N,seed=N,jobs=N]]
    spec becomes a noisy primary with a statevector fallback — the
    paper-shaped degradation chain; any other backend runs alone. *)
let of_spec ?policy ?profile spec =
  match Backend.split_spec spec with
  | "noisy", arg ->
      let shots, seed, jobs = Backend.noisy_args arg in
      create ?policy ?profile ~shots ~seed ~fallbacks:[ statevector ]
        (noisy ?jobs Noise.ibm_qx2017)
  | _ -> create ?policy ?profile (of_backend (Backend.of_spec spec))

(* ------------------------------------------------------------------ *)
(* Result validation and drift detection                               *)
(* ------------------------------------------------------------------ *)

(** [validate ~domain ~shots h] — a well-formed batch histogram: every
    outcome inside the outcome space, every count positive, and a total
    no larger than the shots requested (shorter is allowed — that is
    shot loss, not corruption). *)
let validate ~domain ~shots h =
  List.for_all (fun (x, k) -> x >= 0 && x < domain && k > 0) h
  && List.fold_left (fun acc (_, k) -> acc + k) 0 h <= shots

(** [drift_score ~running ~batch] — Pearson chi-square per degree of
    freedom of a batch against the running histogram (0.5 smoothing on
    both sides so novel outcomes never divide by zero). Same
    distribution scores near 1; a drifted batch scores far above. *)
let drift_score ~running ~batch =
  let total l = List.fold_left (fun acc (_, k) -> acc + k) 0 l in
  let rt = float_of_int (total running) and bt = float_of_int (total batch) in
  if rt = 0. || bt = 0. then 0.
  else begin
    let outcomes =
      List.sort_uniq compare (List.map fst running @ List.map fst batch)
    in
    let get l x =
      match List.assoc_opt x l with Some k -> float_of_int k | None -> 0.
    in
    let chi2 =
      List.fold_left
        (fun acc x ->
          let e = (get running x /. rt *. bt) +. 0.5 in
          let o = get batch x +. 0.5 in
          acc +. (((o -. e) ** 2.) /. e))
        0. outcomes
    in
    chi2 /. float_of_int (max 1 (List.length outcomes - 1))
  end

let drift_threshold = 8.

(* ------------------------------------------------------------------ *)
(* Fault injection on the result channel                               *)
(* ------------------------------------------------------------------ *)

(* A deterministic mangling the validator must catch: either an
   out-of-domain outcome or an inflated total. *)
let corrupt_histogram p ~attempt ~shots h =
  if roll p ~attempt ~salt:5 < 0.5 then (-1, max 1 (shots / 4)) :: h
  else
    match h with
    | (x, k) :: rest -> (x, k + shots + 1) :: rest
    | [] -> [ (0, shots + 1) ]

(* Shot loss: deterministically drop 5–25% of the batch, highest
   outcomes first (any fixed rule works; the histogram just comes up
   short). Returns the shortened histogram and the dropped count. *)
let maybe_lose p ~attempt ~shots h =
  if roll p ~attempt ~salt:2 >= p.shot_loss then (h, 0)
  else begin
    let frac = 0.05 +. (0.20 *. roll p ~attempt ~salt:3) in
    let k = max 1 (int_of_float (frac *. float_of_int shots)) in
    let rec drop k = function
      | [] -> ([], k)
      | (x, c) :: tl ->
          let tl', k = drop k tl in
          if k = 0 then ((x, c) :: tl', 0)
          else if c <= k then (tl', k - c)
          else ((x, c - k) :: tl', 0)
    in
    let h', undropped = drop k h in
    (h', k - undropped)
  end

(* ------------------------------------------------------------------ *)
(* The job executor                                                    *)
(* ------------------------------------------------------------------ *)

(** The result of one {!submit}: the salvaged histogram, the delivery
    accounting, and the validation verdict. *)
type job = {
  counts : (int * int) list; (* merged histogram, ascending outcome *)
  requested : int;
  delivered : int;
  attempts : int; (* attempts this job consumed (deadline budget) *)
  retries : int;
  lost : int; (* shots lost to short batches *)
  drift_flagged : bool;
  backends_used : string list; (* first-use order *)
  elapsed_us : float; (* modelled wall-clock this job consumed (attempt
                         costs plus recorded backoff; never slept) *)
  verdict : Backend.verdict;
}

(* One attempt's outcome, computed inside the device.attempt span. *)
type attempt_result =
  | Delivered of { hist : (int * int) list; backend : string; dropped : int }
  | Faulted of string (* Obs counter name; the batch retries *)
  | Skipped (* breaker open, no fallback: attempt burned, no retry *)

let backoff_us pol p ~attempt ~retry =
  let base = pol.backoff_base_us *. (2. ** float_of_int (min retry 16)) in
  let capped = Float.min base pol.backoff_cap_us in
  (* deterministic jitter in [0.5, 1.5) of the capped delay *)
  capped *. (0.5 +. roll p ~attempt ~salt:6)

(** [submit ?shots ?seed ?budget_us d circuit] runs one job: the
    requested shots are split into [policy.batches] batches, each batch
    is attempted under the job's deadline with capped exponential
    backoff (computed and recorded, never slept), the circuit breaker
    routes around a failing primary via the fallback chain, completed
    batches merge into the histogram (partial-result salvage), and the
    job reports delivered vs. requested shots with a {!Backend.verdict}.
    Never raises on injected faults — total failure is the [Failed]
    verdict.

    [budget_us] (default [policy.budget_us]) is a {e true wall-clock
    budget across the whole job}: every attempt — primary, fallback or
    breaker-skip, on any batch — charges its modelled cost
    ([attempt_us], or [stuck_us] when the attempt hangs to its timeout,
    plus the recorded backoff delay) against one shared meter, and no
    new attempt starts once the meter is exhausted. A chain of slow
    fallbacks therefore cannot overshoot the budget by more than one
    attempt's worth ([stuck_us + attempt_us + 1.5 * backoff_cap_us] in
    the worst case — the cost of the attempt already in flight when the
    meter ran out). The clock is virtual (costs are charged, never
    slept), so budgeted jobs stay bit-reproducible; a serve-level
    deadline composes by passing its remaining time here. *)
let submit ?shots ?seed ?budget_us (d : t) circuit =
  let requested = match shots with Some s -> max 1 s | None -> d.default_shots in
  let seed = match seed with Some s -> s | None -> d.default_seed in
  let budget =
    match budget_us with Some b -> b | None -> d.policy.budget_us
  in
  Obs.with_span "device.submit" @@ fun () ->
  if Obs.enabled () then
    Obs.add_attrs
      [ ("device", Obs.Str d.d_name); ("profile", Obs.Str d.profile.label);
        ("shots", Obs.Int requested) ];
  let p = d.profile and pol = d.policy in
  let n = Circuit.num_qubits circuit in
  let domain = if n >= Sys.int_size - 2 then max_int else 1 lsl n in
  let nbatches = max 1 (min pol.batches requested) in
  let merged : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let delivered = ref 0 and retries = ref 0 and lost = ref 0 in
  let attempts_here = ref 0 in
  let elapsed_us = ref 0. in
  let budget_noted = ref false in
  let drift_flagged = ref false in
  let backends_used = ref [] in
  let last_error = ref None in
  d.stats.submits <- d.stats.submits + 1;
  (* per-backend running histograms for the batch-to-batch drift check *)
  let running : (string, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in

  let trip a =
    d.breaker <- Open { since = a };
    d.consecutive_failures <- 0;
    d.stats.breaker_opens <- d.stats.breaker_opens + 1;
    Obs.count "device.breaker.open"
  in
  let on_primary_failure a =
    match d.breaker with
    | Half_open -> trip a (* the trial attempt failed: reopen *)
    | Closed ->
        d.consecutive_failures <- d.consecutive_failures + 1;
        if d.consecutive_failures >= pol.breaker_threshold then trip a
    | Open _ -> ()
  in
  let on_primary_success () =
    (match d.breaker with
    | Half_open ->
        d.breaker <- Closed;
        Obs.count "device.breaker.close"
    | Closed | Open _ -> ());
    d.consecutive_failures <- 0
  in

  let run_primary a bseed bshots =
    let driftf = 1. +. (p.drift *. float_of_int a) in
    match d.primary.run_batch ~drift:driftf ~seed:bseed ~shots:bshots circuit with
    | exception (Backend.Unsupported m | Failure m | Invalid_argument m) ->
        on_primary_failure a;
        last_error := Some m;
        Faulted "device.error"
    | h ->
        let h =
          if roll p ~attempt:a ~salt:4 < p.corrupt then
            corrupt_histogram p ~attempt:a ~shots:bshots h
          else h
        in
        if not (validate ~domain ~shots:bshots h) then begin
          on_primary_failure a;
          d.stats.invalid <- d.stats.invalid + 1;
          Faulted "device.invalid"
        end
        else begin
          on_primary_success ();
          let h, dropped = maybe_lose p ~attempt:a ~shots:bshots h in
          Delivered { hist = h; backend = d.primary.t_name; dropped }
        end
  in

  (* One batch: Some (histogram, backend) once delivered, None when the
     deadline or the per-batch retry budget runs out. *)
  let rec attempt_batch ~batch ~bseed ~bshots ~retry =
    if !elapsed_us >= budget then begin
      (* the shared wall-clock meter is exhausted: no batch — primary or
         fallback — may start another attempt *)
      if not !budget_noted then begin
        budget_noted := true;
        Obs.count "device.budget.stop"
      end;
      None
    end
    else if !attempts_here >= pol.deadline || retry > pol.max_retries then None
    else begin
      let a = d.attempt_counter in
      d.attempt_counter <- a + 1;
      incr attempts_here;
      d.stats.attempts <- d.stats.attempts + 1;
      (* routing: an open breaker (still cooling down) sends the batch to
         the fallback chain; after [cooldown] attempts the next primary
         attempt is the half-open trial *)
      let route =
        match d.breaker with
        | Open { since } when a - since >= pol.cooldown ->
            d.breaker <- Half_open;
            Obs.count "device.breaker.halfopen";
            `Primary
        | Open _ -> (
            match d.fallbacks with f :: _ -> `Fallback f | [] -> `Skip)
        | Half_open | Closed -> `Primary
      in
      let result =
        Obs.with_span "device.attempt" (fun () ->
            if Obs.enabled () then
              Obs.add_attrs
                [ ("attempt", Obs.Int a); ("batch", Obs.Int batch);
                  ( "route",
                    Obs.Str
                      (match route with
                      | `Primary -> d.primary.t_name
                      | `Fallback f -> f.t_name
                      | `Skip -> "skip") ) ];
            match route with
            | `Skip -> Skipped
            | `Fallback f -> (
                match f.run_batch ~drift:1. ~seed:bseed ~shots:bshots circuit with
                | h -> Delivered { hist = h; backend = f.t_name; dropped = 0 }
                | exception (Backend.Unsupported m | Failure m | Invalid_argument m)
                  ->
                    last_error := Some m;
                    Faulted "device.fallback.error")
            | `Primary ->
                if in_outage p a || roll p ~attempt:a ~salt:0 < p.submit_fail
                then begin
                  on_primary_failure a;
                  d.stats.submit_fails <- d.stats.submit_fails + 1;
                  Faulted "device.submit.fail"
                end
                else if roll p ~attempt:a ~salt:1 < p.stuck then begin
                  on_primary_failure a;
                  d.stats.timeouts <- d.stats.timeouts + 1;
                  Faulted "device.timeout"
                end
                else run_primary a bseed bshots)
      in
      match result with
      | Skipped ->
          elapsed_us := !elapsed_us +. pol.attempt_us;
          d.stats.breaker_skips <- d.stats.breaker_skips + 1;
          Obs.count "device.breaker.skip";
          attempt_batch ~batch ~bseed ~bshots ~retry
      | Faulted counter ->
          incr retries;
          d.stats.retries <- d.stats.retries + 1;
          Obs.count "device.retry";
          Obs.count counter;
          let backoff = backoff_us pol p ~attempt:a ~retry in
          Obs.observe "device.backoff.us" backoff;
          (* a stuck attempt burns its whole timeout window; any other
             fault costs one attempt — plus the backoff delay, which is
             charged to the meter even though it is never slept *)
          elapsed_us :=
            !elapsed_us
            +. (if counter = "device.timeout" then pol.stuck_us
                else pol.attempt_us)
            +. backoff;
          attempt_batch ~batch ~bseed ~bshots ~retry:(retry + 1)
      | Delivered { hist; backend; dropped } ->
          elapsed_us := !elapsed_us +. pol.attempt_us;
          if backend <> d.primary.t_name then begin
            d.stats.fallback_batches <- d.stats.fallback_batches + 1;
            Obs.count "device.fallback"
          end;
          if dropped > 0 then begin
            lost := !lost + dropped;
            d.stats.lost_shots <- d.stats.lost_shots + dropped;
            Obs.count ~by:dropped "device.shots.lost"
          end;
          Some (hist, backend)
    end
  in

  for b = 0 to nbatches - 1 do
    let bshots = (requested * (b + 1) / nbatches) - (requested * b / nbatches) in
    if bshots > 0 then begin
      (* the batch's simulation seed derives from (job seed, batch) — a
         replayed batch reproduces its shots exactly *)
      let bseed =
        Int64.to_int
          (Noise.splitmix64
             (Int64.add
                (Int64.mul (Int64.of_int seed) Noise.golden)
                (Int64.of_int (b + 1))))
        land max_int
      in
      match attempt_batch ~batch:b ~bseed ~bshots ~retry:0 with
      | None -> () (* undelivered: the job comes up short *)
      | Some (h, backend) ->
          if not (List.mem backend !backends_used) then
            backends_used := !backends_used @ [ backend ];
          let btotal = List.fold_left (fun acc (_, k) -> acc + k) 0 h in
          delivered := !delivered + btotal;
          let r =
            match Hashtbl.find_opt running backend with
            | Some r -> r
            | None ->
                let r = Hashtbl.create 32 in
                Hashtbl.add running backend r;
                r
          in
          let ralist =
            List.sort compare (Hashtbl.fold (fun x k acc -> (x, k) :: acc) r [])
          in
          let rtotal = List.fold_left (fun acc (_, k) -> acc + k) 0 ralist in
          (* compare each batch against this backend's accumulated
             histogram once it is meaningfully larger than a batch *)
          if rtotal >= 2 * btotal && btotal >= 32 then begin
            let score = drift_score ~running:ralist ~batch:h in
            if score > drift_threshold then begin
              drift_flagged := true;
              d.stats.drift_flags <- d.stats.drift_flags + 1;
              Obs.count "device.drift.flag"
            end
          end;
          List.iter
            (fun (x, k) ->
              Hashtbl.replace r x (k + Option.value ~default:0 (Hashtbl.find_opt r x));
              Hashtbl.replace merged x
                (k + Option.value ~default:0 (Hashtbl.find_opt merged x)))
            h
    end
  done;

  let fallback_used =
    List.exists (fun f -> List.mem f.t_name !backends_used) d.fallbacks
  in
  let verdict =
    if !delivered = 0 then begin
      d.stats.failed <- d.stats.failed + 1;
      Backend.Failed
        (match !last_error with
        | Some m -> m
        | None ->
            Printf.sprintf "no shots delivered in %d attempts" !attempts_here)
    end
    else begin
      let reasons =
        (if !delivered < requested then
           [ Printf.sprintf "short %d shots" (requested - !delivered) ]
         else [])
        @ (if fallback_used then
             [ "fallback "
               ^ String.concat "+"
                   (List.filter
                      (fun b -> b <> d.primary.t_name)
                      !backends_used) ]
           else [])
        @ if !drift_flagged then [ "distribution drift between batches" ] else []
      in
      match reasons with
      | [] ->
          d.stats.validated <- d.stats.validated + 1;
          Backend.Validated
      | rs ->
          d.stats.degraded <- d.stats.degraded + 1;
          Backend.Degraded (String.concat "; " rs)
    end
  in
  { counts =
      List.sort compare (Hashtbl.fold (fun x k acc -> (x, k) :: acc) merged []);
    requested; delivered = !delivered; attempts = !attempts_here;
    retries = !retries; lost = !lost; drift_flagged = !drift_flagged;
    backends_used = !backends_used; elapsed_us = !elapsed_us; verdict }

(* ------------------------------------------------------------------ *)
(* Job projections                                                     *)
(* ------------------------------------------------------------------ *)

(** [modal j] is the most frequent delivered outcome (ties to the
    smaller outcome); [None] when nothing was delivered. *)
let modal (j : job) =
  List.fold_left
    (fun best (x, k) ->
      match best with Some (_, bk) when bk >= k -> best | _ -> Some (x, k))
    None j.counts
  |> Option.map fst

(** [outcome_of_job j] projects a job into the unified
    {!Backend.outcome} type: frequencies of the {e delivered} shots,
    most frequent first (ties to the smaller outcome), carrying the
    delivery accounting and the verdict. *)
let outcome_of_job (j : job) =
  let total = float_of_int (max 1 j.delivered) in
  let histogram =
    List.sort
      (fun (x1, f1) (x2, f2) ->
        match Float.compare f2 f1 with 0 -> compare x1 x2 | c -> c)
      (List.map (fun (x, k) -> (x, float_of_int k /. total)) j.counts)
  in
  Backend.Job
    { histogram; delivered = j.delivered; requested = j.requested;
      verdict = j.verdict }

let job_summary (j : job) =
  Printf.sprintf "delivered %d/%d shots in %d attempts (%d retries, %d lost)%s via %s — %s"
    j.delivered j.requested j.attempts j.retries j.lost
    (if j.drift_flagged then ", drift flagged" else "")
    (match j.backends_used with [] -> "nothing" | bs -> String.concat "+" bs)
    (Backend.verdict_to_string j.verdict)

(** [stats_lines d] — the shell's [device stats] report. *)
let stats_lines d =
  let s = d.stats in
  [ Printf.sprintf "device %s, profile %s" d.d_name d.profile.label;
    Printf.sprintf "  breaker: %s" (breaker_to_string d);
    Printf.sprintf "  submits %d  attempts %d  retries %d" s.submits s.attempts
      s.retries;
    Printf.sprintf "  faults: submit %d  stuck %d  invalid %d  shots lost %d"
      s.submit_fails s.timeouts s.invalid s.lost_shots;
    Printf.sprintf
      "  breaker opened %d  skipped %d  fallback batches %d  drift flags %d"
      s.breaker_opens s.breaker_skips s.fallback_batches s.drift_flags;
    Printf.sprintf "  verdicts: %d validated, %d degraded, %d failed"
      s.validated s.degraded s.failed ]
