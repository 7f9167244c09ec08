(** Two more oracle algorithms on the automatic compilation flow:
    Bernstein–Vazirani and Deutsch–Jozsa.

    Both share the hidden-shift algorithm's skeleton — Hadamards, one
    compiled phase oracle, Hadamards, measure — and both get their oracles
    from the same ESOP compiler the paper routes through RevKit. They make
    good smoke tests for the whole stack because their answers are
    deterministic and known in closed form. *)

module Engine = Pq.Engine
module Oracles = Pq.Oracles
module Truth_table = Logic.Truth_table
module Bitops = Logic.Bitops

let hadamard_sandwich n oracle =
  let eng = Engine.create () in
  let qs = Engine.allocate_qureg eng n in
  Engine.all Engine.h eng qs;
  oracle eng qs;
  Engine.all Engine.h eng qs;
  Engine.flush eng

(* --- Bernstein–Vazirani --- *)

(** [bv_circuit ~n ~a ~b] builds the Bernstein–Vazirani circuit for the
    affine function [f(x) = ⟨a, x⟩ ⊕ b], with the oracle compiled from the
    function's truth table (it lowers to a layer of Z gates on the bits of
    [a], as expected). *)
let bv_circuit ~n ~a ~b =
  if a < 0 || a >= 1 lsl n then invalid_arg "bv_circuit";
  let f = Truth_table.of_fun n (fun x -> Bitops.parity (x land a) = 1 <> b) in
  hadamard_sandwich n (fun eng qs -> Oracles.phase_oracle_tt eng f qs)

(** [bernstein_vazirani ~n ~a ~b] recovers the hidden string [a] with a
    single oracle query; deterministic. *)
let bernstein_vazirani ~n ~a ~b =
  match Qc.Sim.readout (Qc.Sim.state (bv_circuit ~n ~a ~b)) with
  | outcome, true -> outcome
  | _ -> failwith "bernstein_vazirani: outcome not deterministic"

(* --- Deutsch–Jozsa --- *)

(** The promise: [f] is either constant or balanced. *)
type dj_answer = Constant | Balanced

(** [dj_circuit f] is the Deutsch–Jozsa circuit for [f]: Hadamards, the
    compiled phase oracle, Hadamards (no promise check — callers that
    only want the circuit, e.g. the workload corpus, pass any [f]). *)
let dj_circuit f =
  hadamard_sandwich (Truth_table.num_vars f) (fun eng qs ->
      Oracles.phase_oracle_tt eng f qs)

(** [deutsch_jozsa f] decides the promise with one compiled oracle query:
    outcome 0 ⇔ constant. Raises [Invalid_argument] when [f] satisfies
    neither promise. *)
let deutsch_jozsa f =
  let n = Truth_table.num_vars f in
  let ones = Truth_table.count_ones f in
  if ones <> 0 && ones <> 1 lsl n && 2 * ones <> 1 lsl n then
    invalid_arg "deutsch_jozsa: function is neither constant nor balanced";
  (* amplitude of |0…0⟩ is ±1 for constant f, 0 for balanced f *)
  if Qc.Sim.prob (Qc.Sim.state (dj_circuit f)) 0 > 0.5 then Constant else Balanced
