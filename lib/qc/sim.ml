(** The one place that picks how a circuit is simulated: a tableau for
    Clifford circuits, a sparse state while its support stays small, the
    dense plan otherwise, and the path of a noisy batch. Like the paper's
    interchangeable targets (ProjectQ's simulator, the IBM device, the
    stabilizer backend of ref. [72]), one compiled circuit runs on
    whichever fits, and every caller asks here instead of deciding. *)

(** [clifford c] holds when a tableau path exists for [c]: every gate is
    Clifford. *)
let clifford = Stabilizer.is_clifford_circuit

(** [tableau c] measures every qubit of [c] on the CHP tableau:
    [Some (outcome, deterministic)], where a random branch reads 0, so
    the result is reproducible. [None] when [c] is not Clifford. *)
let tableau c = if clifford c then Some (Stabilizer.measure_all (Stabilizer.run c)) else None

(** A noiseless final state from |0…0⟩. *)
type state = Sparse of Sparse.t | Dense of Statevector.t

(** [state c] simulates [c] sparse while its support stays within
    {!Sparse.budget}, and otherwise runs the dense plan from the start.
    Raises {!Statevector.Unsupported} past the statevector cap, whichever
    representation would run. *)
let state c =
  let n = Circuit.num_qubits c in
  Statevector.check_width n;
  match Sparse.run ~budget:(Sparse.budget n) c with
  | Some s -> Sparse s
  | None -> Dense (Statevector.run c)

(** [most_likely st] is the most likely basis state, the smallest index
    on ties. *)
let most_likely = function
  | Sparse s -> Sparse.most_likely s
  | Dense v -> Statevector.most_likely v

(** [prob st x] is the probability of basis state [x]. *)
let prob = function Sparse s -> Sparse.prob s | Dense v -> Statevector.prob v

(** [readout st] is the most likely outcome, and whether it is certain:
    its probability is 1 within 1e-6. *)
let readout st =
  let x = most_likely st in
  (x, Float.abs (prob st x -. 1.) < 1e-6)

(** A cumulative table for many draws from one state: over the support
    of a sparse state, over all [2^n] amplitudes of a dense one. Both
    draw the same outcome for a PRNG state. *)
type sampler = Sparse_smp of Sparse.sampler | Dense_smp of Statevector.sampler

let sampler = function
  | Sparse s -> Sparse_smp (Sparse.sampler s)
  | Dense v -> Dense_smp (Statevector.sampler v)

(** [sample_with smp st] draws one outcome of all qubits. *)
let sample_with smp st =
  match smp with
  | Sparse_smp s -> Sparse.sample_with s st
  | Dense_smp d -> Statevector.sample_with d st

(** How a batch of noisy shots runs (see {!Noise}):
    - [Frames]: a Clifford circuit without damping, as Pauli frames over
      one tableau sampler;
    - [Sampled]: any other circuit without gate noise or damping,
      simulated once ({!state}) with every shot drawn from one table;
    - [Gate_by_gate]: the rest, each shot sparse then dense. *)
type noisy_path = Frames | Sampled | Gate_by_gate

(** [noisy_path ~gate_noise ~damping c] names the path of noisy shots of
    [c]: [gate_noise] when a gate error probability is nonzero,
    [damping] when amplitude damping is on. *)
let noisy_path ~gate_noise ~damping c =
  if (not damping) && clifford c then Frames
  else if not (gate_noise || damping) then Sampled
  else Gate_by_gate
