(** Monte-Carlo noisy execution — the stand-in for the paper's IBM Quantum
    Experience backend (Fig. 6).

    Pauli-twirled circuit noise: after every gate each touched qubit
    suffers a uniformly random Pauli error with a gate-class-dependent
    probability, and each final readout bit flips independently; [gamma]
    adds amplitude damping by the trajectory method. The default
    parameters are calibrated to published 2017-era IBM QX numbers
    (≈0.1% single-qubit gate error, ≈2–4% CNOT error, ≈3–8% readout
    error), which suffices to reproduce the {e shape} of Fig. 6: the
    correct hidden shift dominates the histogram at p ≈ 0.6 rather than
    p = 1.

    {!run_shots} runs a shot batch on one of three paths, which
    {!Sim.noisy_path} picks from the circuit and the noise parameters:
    - {b Pauli frames}, for every Clifford circuit with [gamma = 0]
      (the Fig. 4 inner-product circuits among them), with or without
      gate and readout noise. The error draws then do not depend on the
      state, and a Pauli error pushed through the Clifford gates after it
      is another Pauli at the end. A computational-basis measurement sees
      only that Pauli's X part, as a bit flip. So a shot is one draw from
      the noiseless distribution (a {!Stabilizer.sampler}, built once per
      call), XORed with the X part of the shot's error frame and with the
      readout flips. This is exact, not an approximation. A shot costs
      O(gates + n) bit operations and no 2^n memory, so the width limit
      is the int that holds an outcome ({!max_qubits} = 62), not the
      statevector's.
    - {b One shared sample table}, for other circuits without gate noise
      ([p1 = p2 = gamma = 0]): the circuit is simulated once
      ({!Sim.state}) and every shot draws from its cumulative
      distribution — over the support when the state stays within
      {!Sparse.budget}, else over all 2^n amplitudes; both tables draw
      the same outcomes.
    - {b Gate by gate, sparse then dense} ({!run_shot_raw}), for every
      other circuit: each shot applies its gates and sampled errors to a
      {!Sparse} state, which costs the support of the state, not 2^n —
      the reversible oracles of the flow keep a few dozen nonzero
      amplitudes. The first time the support passes {!Sparse.budget}
      ([2^n / 16]) the shot switches to a dense {!Statevector} and
      finishes there. Shots fan out over the {!Par} domain pool.

    The dense gate-by-gate shot, [run_shot_raw ~budget:0], is the test
    oracle of the other paths. The sparse and dense representations
    compute the same amplitudes and draw the same PRNG values in the same
    order, so a gate-by-gate shot's outcome does not depend on where (or
    whether) it switches; the frame path injects the same errors for a
    given seed, but its outcome draw differs. Determinism is by
    construction: shot [i]'s PRNG state derives from [(seed, i)] through
    a splitmix64-style hash (never from how shots are scheduled),
    per-domain histograms merge by integer addition, the frame path runs
    on the calling domain, and telemetry accumulates and flushes once
    from the caller — so any [jobs] count is bit-identical to the
    [~jobs:1] reference. Off the frame path the statevector cap
    ([DAUTOQ_SV_MAX_QUBITS]) binds, even where a shot would stay
    sparse. *)

type params = {
  p1 : float; (* error probability per 1-qubit gate, per qubit *)
  p2 : float; (* error probability per 2+-qubit gate, per involved qubit *)
  readout : float; (* bit-flip probability per measured qubit *)
  gamma : float; (* amplitude-damping (T1 relaxation) per gate, per qubit *)
}

(** Calibrated to the IBM QX4/QX5 generation the paper used (within the
    published ranges; chosen so the E2 reproduction lands near the paper's
    measured success probability of ≈0.63 on the Fig. 4 circuit). *)
let ibm_qx2017 = { p1 = 0.001; p2 = 0.032; readout = 0.055; gamma = 0. }

(** [ibm_qx2017_t1] additionally models T1 relaxation between gates
    (trajectory method): a slightly more pessimistic backend. *)
let ibm_qx2017_t1 = { ibm_qx2017 with gamma = 0.004 }

(** [noiseless] turns the channel off (for testing the harness itself). *)
let noiseless = { p1 = 0.; p2 = 0.; readout = 0.; gamma = 0. }

(** [scale_params f p] multiplies every channel strength by [f], clamped
    into [0, 0.95] — the device layer's calibration-drift model (error
    rates slowly wander as the simulated calibration ages). *)
let scale_params f p =
  let c x = Float.max 0. (Float.min 0.95 (x *. f)) in
  { p1 = c p.p1; p2 = c p.p2; readout = c p.readout; gamma = c p.gamma }

(* ------------------------------------------------------------------ *)
(* Outcome histograms                                                  *)
(* ------------------------------------------------------------------ *)

(** An outcome histogram over a [size = 2^n] outcome space, keyed by
    outcome: a batch holds at most one entry per shot, whatever [n]. *)
type counts = { size : int; tbl : (int, int) Hashtbl.t }

(** Widest circuit {!runs_statistics} accepts: its mean and deviation
    tables are dense (2^20 floats = 8 MB a table). *)
let statistics_max_qubits = 20

let counts_make n = { size = 1 lsl n; tbl = Hashtbl.create 256 }

let counts_add c x k =
  Hashtbl.replace c.tbl x (k + Option.value ~default:0 (Hashtbl.find_opt c.tbl x))

(** [count c x] is the number of shots that measured outcome [x]. *)
let count c x = Option.value ~default:0 (Hashtbl.find_opt c.tbl x)

(** [counts_size c] is the outcome-space size [2^n]. *)
let counts_size c = c.size

(** [counts_to_alist c] lists the nonzero [(outcome, count)] pairs in
    ascending outcome order. *)
let counts_to_alist c =
  List.sort compare (Hashtbl.fold (fun x k acc -> (x, k) :: acc) c.tbl [])

(** [iter_counts f c] applies [f outcome count] to every nonzero entry in
    ascending outcome order. *)
let iter_counts f c = List.iter (fun (x, k) -> f x k) (counts_to_alist c)

(** [total_counts c] sums the histogram (= the shot count). *)
let total_counts c = Hashtbl.fold (fun _ k acc -> acc + k) c.tbl 0

(** [counts_of_array a] is the histogram with [a.(x)] shots on outcome
    [x] over [Array.length a] outcomes (handy in tests). *)
let counts_of_array a =
  let c = { size = Array.length a; tbl = Hashtbl.create 16 } in
  Array.iteri (fun x k -> if k > 0 then counts_add c x k) a;
  c

(** [counts_equal a b] compares histograms by content. *)
let counts_equal a b = a.size = b.size && counts_to_alist a = counts_to_alist b

(* Merge [src] into [dst] (in place) and return [dst]. Integer addition
   commutes, so merge order cannot affect the result. *)
let counts_merge dst src =
  Hashtbl.iter (counts_add dst) src.tbl;
  dst

(* ------------------------------------------------------------------ *)
(* Counter-based per-shot seeding                                      *)
(* ------------------------------------------------------------------ *)

(* splitmix64 finalizer: the standard 64-bit avalanche (Steele et al.),
   here used to turn (seed, shot index) into an independent PRNG seed per
   shot. Counter-based seeding is what makes parallel shots
   deterministic: shot i's stream never depends on which domain runs it
   or on how many shots ran before it. *)
let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

let shot_state ~seed shot =
  let open Int64 in
  let x = add (mul (of_int seed) golden) (of_int shot) in
  let a = splitmix64 x in
  let b = splitmix64 (add x golden) in
  Random.State.make [| to_int a; to_int b; seed; shot |]

(* ------------------------------------------------------------------ *)
(* Single shots                                                        *)
(* ------------------------------------------------------------------ *)

let random_pauli st q =
  match Random.State.int st 3 with 0 -> Gate.X q | 1 -> Gate.Y q | _ -> Gate.Z q

(* Readout: each of the [n] measured bits flips independently. *)
let readout st params n x =
  let x = ref x in
  for q = 0 to n - 1 do
    if Random.State.float st 1. < params.readout then x := !x lxor (1 lsl q)
  done;
  !x

(* A circuit ready for a batch of shots, prepared once per batch: its
   gates, the qubits of each as an array, and each gate's error
   probability per qubit ([p1] for a 1-qubit gate, else [p2]), so a shot
   builds no qubit list per gate. *)
type prepared = {
  width : int;
  gates : Gate.t array;
  qubits : int array array;
  prob : float array;
}

let prepare params circuit =
  let gates = Circuit.to_array circuit in
  let qubits = Array.map (fun g -> Array.of_list (Gate.qubits g)) gates in
  { width = Circuit.num_qubits circuit;
    gates;
    qubits;
    prob = Array.map (fun qs -> if Array.length qs = 1 then params.p1 else params.p2) qubits }

(* One noisy execution; returns (measured outcome, injected error count,
   whether the state went dense). The state is sparse while its support
   stays within [budget], dense from the first gate or error that passes
   it. The PRNG draws — errors, damping jumps, the final sample — come
   in the same order on either representation, and the two compute the
   same amplitudes, so the result does not depend on [budget]. The
   caller checks the width against the statevector cap. No telemetry —
   safe to call from pool workers. *)
let simulate_shot ~budget st params pc =
  let n = pc.width in
  let state = ref (Sim.Sparse (Sparse.init n)) and densified = ref false in
  let settle () =
    match !state with
    | Sim.Sparse s when Sparse.support s > budget ->
        state := Sim.Dense (Sparse.to_statevector s);
        densified := true
    | _ -> ()
  in
  let apply g =
    (match !state with
    | Sim.Sparse s -> Sparse.apply s g
    | Sim.Dense v -> Statevector.apply v g);
    settle ()
  in
  settle ();
  let errors = ref 0 in
  for i = 0 to Array.length pc.gates - 1 do
    apply pc.gates.(i);
    let qs = pc.qubits.(i) and p = pc.prob.(i) in
    for j = 0 to Array.length qs - 1 do
      let q = qs.(j) in
      if Random.State.float st 1. < p then begin
        incr errors;
        apply (random_pauli st q)
      end;
      if params.gamma > 0. then begin
        (* quantum-trajectory amplitude damping *)
        let p1 =
          match !state with
          | Sim.Sparse s -> Sparse.prob_of_qubit s q
          | Sim.Dense v -> Statevector.prob_of_qubit v q
        in
        let jump = Random.State.float st 1. < params.gamma *. p1 in
        match !state with
        | Sim.Sparse s -> Sparse.amplitude_damp s q ~gamma:params.gamma ~jump
        | Sim.Dense v -> Statevector.amplitude_damp v q ~gamma:params.gamma ~jump
      end
    done
  done;
  let outcome =
    match !state with
    | Sim.Sparse s -> Sparse.sample st s
    | Sim.Dense v -> Statevector.sample st v
  in
  (readout st params n outcome, !errors, !densified)

(** [run_shot_raw ?budget st params circuit] is one gate-by-gate noisy
    execution: [(measured outcome, injected error count)]. The state is
    sparse until its support passes [budget] (default {!Sparse.budget}),
    dense after; [~budget:0] runs dense from the first gate, the
    reference the other paths are tested against. The result is the same
    for every [budget]. Raises {!Statevector.Unsupported} past the
    statevector cap. No telemetry — safe to call from pool workers. *)
let run_shot_raw ?budget st params circuit =
  let n = Circuit.num_qubits circuit in
  Statevector.check_width n;
  let budget = match budget with Some b -> b | None -> Sparse.budget n in
  let x, errors, _ = simulate_shot ~budget st params (prepare params circuit) in
  (x, errors)

(* ------------------------------------------------------------------ *)
(* Pauli frames (Clifford circuits)                                    *)
(* ------------------------------------------------------------------ *)

(** Widest circuit {!run_shots} accepts: an outcome is packed into an
    int, bits 0–61. *)
let max_qubits = Stabilizer.max_sample_qubits

(* A Pauli frame is two bitmasks, its X part [fx] and its Z part [fz];
   signs are dropped, since a computational-basis measurement cannot see
   them. [conjugate fx fz g] turns the frame P into g·P·g†, the Pauli it
   becomes once pushed past gate [g] — the tableau's update rules
   ({!Stabilizer.apply}) on a single row. *)
let conjugate fx fz (g : Gate.t) =
  let bit m q = (m lsr q) land 1 in
  match g with
  | Gate.H q ->
      if bit !fx q <> bit !fz q then begin
        fx := !fx lxor (1 lsl q);
        fz := !fz lxor (1 lsl q)
      end
  | Gate.S q | Gate.Sdg q -> fz := !fz lxor (!fx land (1 lsl q))
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.Mcz [ _ ] -> ()
  | Gate.Cnot (a, b) ->
      fx := !fx lxor (bit !fx a lsl b);
      fz := !fz lxor (bit !fz b lsl a)
  | Gate.Cz (a, b) | Gate.Mcz [ a; b ] ->
      fz := !fz lxor (bit !fx b lsl a) lxor (bit !fx a lsl b)
  | Gate.Swap (a, b) ->
      let swap m = if bit !m a <> bit !m b then m := !m lxor ((1 lsl a) lor (1 lsl b)) in
      swap fx;
      swap fz
  | g -> raise (Stabilizer.Not_clifford g)

(* Multiply the Pauli error [e] into the frame. *)
let inject fx fz (e : Gate.t) =
  match e with
  | Gate.X q -> fx := !fx lxor (1 lsl q)
  | Gate.Y q ->
      fx := !fx lxor (1 lsl q);
      fz := !fz lxor (1 lsl q)
  | Gate.Z q -> fz := !fz lxor (1 lsl q)
  | g -> invalid_arg ("Noise.inject: not a Pauli: " ^ Gate.name g)

(* Push a frame, empty at the start, through [gates]; [after i fx fz]
   multiplies in the errors that follow gate [i]. *)
let push_frame gates after =
  let fx = ref 0 and fz = ref 0 in
  Array.iteri
    (fun i g ->
      conjugate fx fz g;
      after i fx fz)
    gates;
  (!fx, !fz)

(** [frame_after c errors] is the Pauli frame [(x, z)] at the end of the
    Clifford circuit [c] when each [(i, e)] of [errors] inserts the
    Pauli gate [e] right after gate [i]: the circuit with those errors
    measures like [c] with every outcome XORed with [x]. *)
let frame_after c errors =
  push_frame (Circuit.to_array c) (fun i fx fz ->
      List.iter (fun (j, e) -> if j = i then inject fx fz e) errors)

(* One noisy shot of a Clifford circuit by Pauli frame; returns (measured
   outcome, injected error count). The error draws are those of
   [run_shot_raw], gate by gate and qubit by qubit; the noiseless outcome
   then comes from [smp]. *)
let run_frame_shot st params smp pc =
  let errors = ref 0 in
  let fx, _ =
    if params.p1 = 0. && params.p2 = 0. then (0, 0) (* no gate noise: no draws *)
    else
      push_frame pc.gates (fun i fx fz ->
          let qs = pc.qubits.(i) and p = pc.prob.(i) in
          for j = 0 to Array.length qs - 1 do
            if Random.State.float st 1. < p then begin
              incr errors;
              inject fx fz (random_pauli st qs.(j))
            end
          done)
  in
  (readout st params pc.width (Stabilizer.sample smp st lxor fx), !errors)

(* ------------------------------------------------------------------ *)
(* Shot batches                                                        *)
(* ------------------------------------------------------------------ *)

(* One-slot memo for the noiseless fast path: [runs_statistics], device
   retries and repeated shell/CLI invocations re-sample the same compiled
   circuit, and the simulated state plus its sampler are pure functions
   of that circuit. The statevector's plan cache already makes the
   re-simulation itself cheap — this skips the whole simulation and
   sampler rebuild. A dense sampler holds its state (which nothing else
   sees, so it never changes under the sampler) and only every 64th
   running sum, so the memo never pins a single contiguous 2^n array on
   wide sharded runs, and draws are bit-identical for any shard-bits
   setting. Main-domain only (like Obs); workers never call run_shots. *)
let sampler_memo : (string * Sim.sampler) option ref = ref None

let sampler_for circuit =
  let key = Circuit.structural_key circuit in
  match !sampler_memo with
  | Some (k, smp) when String.equal k key ->
      if Obs.enabled () then Obs.count "qc.noise.sampler_reuse";
      smp
  | _ ->
      let smp = Sim.sampler (Sim.state circuit) in
      sampler_memo := Some (key, smp);
      smp

(** [run_shots ?seed ?jobs params circuit ~shots] returns the histogram of
    measured basis states over [shots] executions, on the path
    {!Sim.noisy_path} names (see the header). Gate-by-gate shots fan out
    over [jobs] worker domains (default {!Par.default_jobs}); the others
    run on the calling domain. The histogram is bit-identical for every
    [jobs] value: [~jobs:1] defines the reference result.
    Raises [Invalid_argument] past {!max_qubits} qubits, and
    {!Statevector.Unsupported} when a circuit off the frame path is wider
    than the statevector cap. *)
let run_shots ?(seed = 0xC0FFEE) ?jobs params circuit ~shots =
  Obs.with_span "qc.noise.run_shots" @@ fun () ->
  let n = Circuit.num_qubits circuit in
  if n > max_qubits then
    invalid_arg
      (Printf.sprintf "noise.width: %d qubits exceed the %d-bit outcome limit of noisy runs"
         n max_qubits);
  let jobs =
    let j = match jobs with Some j -> max 1 j | None -> Par.default_jobs () in
    min j (max 1 shots)
  in
  let path =
    Sim.noisy_path circuit
      ~gate_noise:(params.p1 <> 0. || params.p2 <> 0.)
      ~damping:(params.gamma <> 0.)
  in
  if path <> Sim.Frames then Statevector.check_width n;
  if Obs.enabled () then
    Obs.add_attrs
      [ ("shots", Obs.Int shots); ("qubits", Obs.Int n); ("jobs", Obs.Int jobs) ];
  let errors = Array.make (max 1 shots) 0 in
  (* per gate-by-gate shot: did its state go dense? *)
  let densified = Array.make (max 1 shots) false in
  let budget = Sparse.budget n in
  let shot_range pc c lo hi =
    for shot = lo to hi - 1 do
      let x, e, d = simulate_shot ~budget (shot_state ~seed shot) params pc in
      counts_add c x 1;
      errors.(shot) <- e;
      densified.(shot) <- d
    done;
    c
  in
  let counts =
    match path with
    | Sim.Frames ->
        (* Pauli frames (see the header): one tableau run and one sampler
           for the whole batch, then O(gates + n) bit operations a shot. *)
        let smp = Stabilizer.sampler (Stabilizer.run circuit) in
        let pc = prepare params circuit in
        let c = counts_make n in
        for shot = 0 to shots - 1 do
          let x, e = run_frame_shot (shot_state ~seed shot) params smp pc in
          counts_add c x 1;
          errors.(shot) <- e
        done;
        c
    | Sim.Sampled ->
        (* every shot runs the same circuit: one memoized table, a
           binary search per shot, still seeded per shot *)
        let smp = sampler_for circuit in
        let c = counts_make n in
        for shot = 0 to shots - 1 do
          let st = shot_state ~seed shot in
          counts_add c (readout st params n (Sim.sample_with smp st)) 1
        done;
        c
    | Sim.Gate_by_gate when jobs = 1 ->
        shot_range (prepare params circuit) (counts_make n) 0 shots
    | Sim.Gate_by_gate ->
        let pc = prepare params circuit in
        (* Chunk the shot range; each task accumulates a private histogram
           (and per-shot results at disjoint indices), then the chunks
           merge in index order on the calling domain. *)
        Par.with_pool ~jobs (fun pool ->
            Par.map_reduce pool ~tasks:jobs
              ~map:(fun i ->
                shot_range pc (counts_make n) (shots * i / jobs) (shots * (i + 1) / jobs))
              ~reduce:counts_merge ~init:(counts_make n))
  in
  (* telemetry accumulated above, flushed once from the calling domain —
     workers never touch the (single-domain) Obs state *)
  if Obs.enabled () then begin
    Obs.count ~by:shots "qc.noise.shots";
    if path = Sim.Gate_by_gate && shots > 0 then begin
      let dense = Array.fold_left (fun k d -> if d then k + 1 else k) 0 densified in
      if dense < shots then Obs.count ~by:(shots - dense) "qc.noise.sparse_shots";
      if dense > 0 then Obs.count ~by:dense "qc.noise.densified_shots"
    end;
    let total_errors = Array.fold_left ( + ) 0 errors in
    if total_errors > 0 then Obs.count ~by:total_errors "qc.noise.errors_injected";
    for shot = 0 to shots - 1 do
      Obs.observe "qc.noise.errors_per_shot" (float_of_int errors.(shot))
    done
  end;
  counts

(** [success_probability counts target] is the empirical probability of the
    outcome [target]. *)
let success_probability counts target =
  let total = total_counts counts in
  if total = 0 then 0. else Float.of_int (count counts target) /. Float.of_int total

(** [runs_statistics ?seed ?jobs params circuit ~shots ~runs] repeats
    {!run_shots} and reports, per basis state, the mean and standard
    deviation of the outcome frequency across runs — exactly the averaged
    histogram of the paper's Fig. 6 (3 runs × 1024 shots). Its tables are
    dense, so it raises [Invalid_argument] past {!statistics_max_qubits}
    qubits. *)
let runs_statistics ?(seed = 7) ?jobs params circuit ~shots ~runs =
  let n = Circuit.num_qubits circuit in
  if n > statistics_max_qubits then
    invalid_arg
      (Printf.sprintf
         "noise.width: runs_statistics keeps dense 2^n frequency tables; %d qubits exceed \
          %d (the noisy backend's sparse histograms have no such limit)"
         n statistics_max_qubits);
  let size = 1 lsl n in
  let freqs = Array.make_matrix runs size 0. in
  for r = 0 to runs - 1 do
    let counts = run_shots ~seed:(seed + (r * 7919)) ?jobs params circuit ~shots in
    List.iter
      (fun (x, k) -> freqs.(r).(x) <- Float.of_int k /. Float.of_int shots)
      (counts_to_alist counts)
  done;
  (* the average over runs of [f row] *)
  let avg f = Array.fold_left (fun acc row -> acc +. f row) 0. freqs /. Float.of_int runs in
  let mean = Array.init size (fun x -> avg (fun row -> row.(x))) in
  (mean, Array.init size (fun x -> sqrt (avg (fun row -> (row.(x) -. mean.(x)) ** 2.))))
