(** Quantum gates.

    The gate set mirrors what the paper's flows use: the Clifford+T basis
    {H, S, S†, T, T†, X, Y, Z, CNOT, CZ} that IBM-style hardware accepts,
    arbitrary Z-rotations, SWAP, plus {e high-level} multiple-controlled
    X/Z gates which {!Clifford_t} lowers. *)

type t =
  | X of int
  | Y of int
  | Z of int
  | H of int
  | S of int
  | Sdg of int
  | T of int
  | Tdg of int
  | Rz of float * int
  | Cnot of int * int (* control, target *)
  | Cz of int * int
  | Swap of int * int
  | Ccx of int * int * int (* control, control, target *)
  | Ccz of int * int * int
  | Mcx of int list * int (* controls (>= 3 of them when built), target *)
  | Mcz of int list (* symmetric: phase flip when all listed qubits are 1 *)

(** [adjoint g] is the inverse gate. All gates here are self-inverse except
    S/T/Rz. *)
let adjoint = function
  | S q -> Sdg q
  | Sdg q -> S q
  | T q -> Tdg q
  | Tdg q -> T q
  | Rz (a, q) -> Rz (-.a, q)
  | g -> g

(** [equal a b] is structural equality without the polymorphic
    comparison: [Rz] angles compare with float [=], so a NaN angle equals
    nothing, as under [Stdlib.( = )]. *)
let equal a b =
  match (a, b) with
  | X p, X q | Y p, Y q | Z p, Z q | H p, H q | S p, S q | Sdg p, Sdg q | T p, T q
  | Tdg p, Tdg q ->
      p = q
  | Rz (x, p), Rz (y, q) -> (x : float) = y && p = q
  | Cnot (a, b), Cnot (c, d) | Cz (a, b), Cz (c, d) | Swap (a, b), Swap (c, d) ->
      a = c && b = d
  | Ccx (a, b, t), Ccx (c, d, u) | Ccz (a, b, t), Ccz (c, d, u) -> a = c && b = d && t = u
  | Mcx (cs, t), Mcx (ds, u) -> t = u && List.equal Int.equal cs ds
  | Mcz ps, Mcz qs -> List.equal Int.equal ps qs
  | _ -> false

(** [qubits g] lists the qubits the gate touches. *)
let qubits = function
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q | Rz (_, q) -> [ q ]
  | Cnot (a, b) | Cz (a, b) | Swap (a, b) -> [ a; b ]
  | Ccx (a, b, c) | Ccz (a, b, c) -> [ a; b; c ]
  | Mcx (cs, t) -> cs @ [ t ]
  | Mcz qs -> qs

(** [is_t g] holds for T and T† — the costly gates under fault tolerance. *)
let is_t = function T _ | Tdg _ -> true | _ -> false

(** [is_clifford_t g] holds when the gate is already in the Clifford+T
    basis (Rz excluded). *)
let is_clifford_t = function
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Cnot _ | Cz _ -> true
  | _ -> false

(** Canonical names, matching OpenQASM where a direct equivalent exists. *)
let name = function
  | X _ -> "x"
  | Y _ -> "y"
  | Z _ -> "z"
  | H _ -> "h"
  | S _ -> "s"
  | Sdg _ -> "sdg"
  | T _ -> "t"
  | Tdg _ -> "tdg"
  | Rz _ -> "rz"
  | Cnot _ -> "cx"
  | Cz _ -> "cz"
  | Swap _ -> "swap"
  | Ccx _ -> "ccx"
  | Ccz _ -> "ccz"
  | Mcx _ -> "mcx"
  | Mcz _ -> "mcz"

let pp ppf g =
  match g with
  | Rz (a, q) -> Fmt.pf ppf "rz(%g) q%d" a q
  | Mcx (cs, t) ->
      Fmt.pf ppf "mcx [%a] q%d" Fmt.(list ~sep:(any ",") (fmt "q%d")) cs t
  | Mcz qs -> Fmt.pf ppf "mcz [%a]" Fmt.(list ~sep:(any ",") (fmt "q%d")) qs
  | g ->
      Fmt.pf ppf "%s %a" (name g) Fmt.(list ~sep:(any ",") (fmt "q%d")) (qubits g)
