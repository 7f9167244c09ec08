(** The Boolean hidden shift problem — the paper's algorithmic benchmark
    (Secs. VI–VIII).

    Given oracle access to [g(x) = f(x ⊕ s)] and to the dual bent function
    [f~], the quantum algorithm of Fig. 3

      H^⊗n · U_g · H^⊗n · U_{f~} · H^⊗n |0…0⟩  =  |s⟩

    finds the hidden shift [s] deterministically with one query to each
    oracle. This module builds the circuit for the paper's two instance
    families (inner product, Maiorana–McFarland) and for arbitrary bent
    functions, runs it on the noiseless and noisy backends, and provides
    the classical sampling baseline for comparison. *)

module Truth_table = Logic.Truth_table
module Bent = Logic.Bent
module Walsh = Logic.Walsh
module Bitops = Logic.Bitops
module Engine = Pq.Engine
module Oracles = Pq.Oracles

type instance =
  | Inner_product of { n : int; s : int }
      (** [f = x₁x₂ ⊕ x₃x₄ ⊕ …] on [2n] qubits with adjacent pairing
          (Fig. 4); self-dual. *)
  | Mm of { mm : Bent.mm; s : int; synth : Oracles.synth }
      (** Maiorana–McFarland on [2n] qubits, interleaved layout (Fig. 7:
          [xᵢ] on even lines, [yᵢ] on odd lines); [s] is in qubit-index
          encoding. *)
  | Generic of { f : Truth_table.t; s : int }
      (** Any bent function, via ESOP phase oracles for [f] and its Walsh
          dual. *)

(** [num_qubits i] is the circuit width (no ancillae are ever needed). *)
let num_qubits = function
  | Inner_product { n; _ } -> 2 * n
  | Mm { mm; _ } -> 2 * mm.Bent.n
  | Generic { f; _ } -> Truth_table.num_vars f

(** [shift i] is the planted shift — the expected measurement outcome. *)
let shift = function
  | Inner_product { s; _ } | Mm { s; _ } | Generic { s; _ } -> s

(** [function_table i] is [f] as a truth table over qubit-index
    assignments. *)
let function_table = function
  | Inner_product { n; _ } -> Bent.inner_product_adjacent n
  | Mm { mm; _ } ->
      Bent.interleave_table mm.Bent.n (Bent.mm_function mm)
  | Generic { f; _ } -> f

(* Emit X on the set bits of the shift. *)
let shift_gates eng qs s =
  Array.iteri (fun i q -> if Bitops.bit s i then Engine.x eng q) qs

(** [build i] constructs the hidden-shift circuit following the structure
    of the paper's Figs. 4 and 7: a Compute block (Hadamards, the shift,
    and any oracle-internal pre-processing), the phase oracle for [f], the
    Uncompute, the phase oracle for the dual, final Hadamards. *)
let build instance =
  let eng = Engine.create () in
  let m = num_qubits instance in
  let qs = Engine.allocate_qureg eng m in
  let s = shift instance in
  (match instance with
  | Inner_product { n; _ } ->
      (* the phase oracle of x₁x₂ ⊕ x₃x₄ ⊕ … is structurally the CZ pairs
         (exactly what the ESOP compiler produces), which keeps the builder
         usable far beyond the truth-table width limit *)
      let oracle () =
        for i = 0 to n - 1 do
          Engine.cz eng qs.(2 * i) qs.((2 * i) + 1)
        done
      in
      Engine.with_compute eng
        (fun () ->
          Engine.all Engine.h eng qs;
          shift_gates eng qs s)
        oracle;
      (* f is self-dual *)
      oracle ();
      Engine.all Engine.h eng qs
  | Mm { mm; s; synth } ->
      (* interleaved registers, as in Fig. 7 *)
      let xs = Array.init mm.Bent.n (fun i -> qs.(2 * i)) in
      let ys = Array.init mm.Bent.n (fun i -> qs.((2 * i) + 1)) in
      Engine.with_compute eng
        (fun () ->
          Engine.all Engine.h eng qs;
          shift_gates eng qs s)
        (fun () -> Oracles.mm_phase_oracle ~synth eng mm ~xs ~ys);
      Oracles.mm_dual_phase_oracle ~synth eng mm ~xs ~ys;
      Engine.all Engine.h eng qs
  | Generic { f; s } ->
      if not (Walsh.is_bent f) then invalid_arg "Hidden_shift: f is not bent";
      let dual = Walsh.dual f in
      Engine.with_compute eng
        (fun () ->
          Engine.all Engine.h eng qs;
          shift_gates eng qs s)
        (fun () -> Oracles.phase_oracle_tt eng f qs);
      Oracles.phase_oracle_tt eng dual qs;
      Engine.all Engine.h eng qs);
  Engine.flush eng

(** [build_compiled ?tpar ?passes i] is {!build} followed by Clifford+T
    lowering and the quantum-layer pass list (T-par by default; [passes]
    overrides with any registered passes) — the circuit a hardware backend
    would actually receive. Returns the circuit and the ancilla count the
    lowering added. *)
let build_compiled ?(tpar = true) ?passes instance =
  let c = build instance in
  let mapped, ancillae = Qc.Clifford_t.compile c in
  let passes =
    match passes with
    | Some ps -> ps
    | None -> if tpar then [ Pass.find "tpar" ] else []
  in
  let final, _trace = Pass.run_qc passes mapped in
  (final, ancillae)

(** [solve i] runs the noiseless simulation ({!Qc.Sim.state}, sparse
    first) and returns the measured shift. On perfect gates the outcome
    is deterministic, so the most likely basis state {e is} the answer;
    [solve] additionally checks determinism and raises [Failure] if the
    final state is not a basis state. *)
let solve instance =
  let outcome, deterministic = Qc.Sim.readout (Qc.Sim.state (build instance)) in
  if not deterministic then
    failwith "Hidden_shift.solve: outcome not deterministic (compilation bug?)";
  outcome

(** [solve_clifford i] solves the instance on the stabilizer (CHP) backend,
    which handles register widths far beyond state vectors — but only for
    Clifford circuits. Inner-product instances always qualify (their phase
    oracles are CZ pairs); Maiorana–McFarland instances qualify exactly when
    the synthesized permutation oracle stays in {X, CNOT} ∪ Clifford. This
    is the Bravyi–Gosset [72] observation turned into a backend. Raises
    [Invalid_argument] on non-Clifford circuits and [Failure] if the
    outcome is not deterministic. *)
let solve_clifford instance =
  match Qc.Sim.tableau (build instance) with
  | None -> invalid_arg "Hidden_shift.solve_clifford: circuit is not Clifford"
  | Some (_, false) -> failwith "Hidden_shift.solve_clifford: outcome not deterministic"
  | Some (outcome, true) -> outcome

(** [run_noisy ?seed params i ~shots ~runs] executes the circuit on the
    noisy backend — the Fig. 6 experiment. Returns per-outcome mean and
    standard deviation of the frequency across runs. *)
let run_noisy ?seed params instance ~shots ~runs =
  Qc.Noise.runs_statistics ?seed params (build instance) ~shots ~runs

(** Classical baseline: generic candidate-elimination with oracle access to
    [f] and [g] (both count as queries, memoized). Random probes eliminate
    inconsistent shift candidates until one remains. Query complexity grows
    as [Θ(2^n)] here — exponential in the input size, against the quantum
    algorithm's two oracle evaluations. *)
let classical_queries ?(seed = 1) instance =
  let f = function_table instance in
  let s = shift instance in
  let n = Truth_table.num_vars f in
  let g x = Truth_table.get f (x lxor s) in
  let st = Random.State.make [| seed |] in
  let queried_f = Hashtbl.create 64 and queried_g = Hashtbl.create 64 in
  let queries = ref 0 in
  let query tbl fn x =
    match Hashtbl.find_opt tbl x with
    | Some v -> v
    | None ->
        incr queries;
        let v = fn x in
        Hashtbl.add tbl x v;
        v
  in
  let qf x = query queried_f (Truth_table.get f) x in
  let qg x = query queried_g g x in
  let candidates = ref (List.init (1 lsl n) Fun.id) in
  while List.length !candidates > 1 do
    let probe = Random.State.int st (1 lsl n) in
    let gv = qg probe in
    candidates := List.filter (fun c -> qf (probe lxor c) = gv) !candidates
  done;
  (List.hd !candidates, !queries)

(** [random_mm_instance st n] draws a random Maiorana–McFarland instance
    with a random shift — the E7 workload generator. *)
let random_mm_instance ?(synth = Oracles.Tbs) st n =
  let mm = Bent.random_mm st n in
  let s = Random.State.int st (1 lsl (2 * n)) in
  Mm { mm; s; synth }
