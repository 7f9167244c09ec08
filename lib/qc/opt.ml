(** Peephole optimization on quantum circuits.

    Complements {!Tpar}: cancels adjacent inverse pairs (H·H, X·X,
    CNOT·CNOT, S·S†, …), fuses adjacent rotations on the same qubit
    (T·T = S, S·S = Z, Rz·Rz), and lets gates commute across gates acting
    on disjoint qubits to meet their partners. Applied to a fixpoint. *)

open Gate

let disjoint a b =
  let qa = qubits a and qb = qubits b in
  not (List.exists (fun q -> List.mem q qb) qa)

(* Diagonal single-qubit phase gates commute with each other on the same
   qubit and with controls; we only use same-qubit fusion. *)
let eighths_of = function
  | Z _ -> Some 4
  | S _ -> Some 2
  | Sdg _ -> Some 6
  | T _ -> Some 1
  | Tdg _ -> Some 7
  | _ -> None

let target_of_phase = function
  | Z q | S q | Sdg q | T q | Tdg q | Rz (_, q) -> Some q
  | _ -> None

(* Try to fuse gates a and b (adjacent after commuting); result is the
   replacement list, or None if not fusable. *)
let fuse a b =
  if a = adjoint b then Some []
  else
    match (target_of_phase a, target_of_phase b) with
    | Some qa, Some qb when qa = qb -> (
        match (eighths_of a, eighths_of b) with
        | Some ka, Some kb -> Some (Tpar.phase_gates_of ~eighths:(ka + kb) ~angle:0. qa)
        | _ -> (
            match (a, b) with
            | Rz (x, _), Rz (y, _) ->
                if Float.abs (x +. y) < 1e-12 then Some [] else Some [ Rz (x +. y, qa) ]
            | _ -> None))
    | _ -> None

let rewrite_once gates =
  let n = Array.length gates in
  let result = ref None in
  (try
     for i = 0 to n - 2 do
       let rec probe j =
         if j >= n then ()
         else
           match fuse gates.(i) gates.(j) with
           | Some replacement when List.length replacement < 2 ->
               (* gates i and j fuse; since everything in between is
                  disjoint from gate i, the replacement stays at j. A
                  fusion that gives two gates back (S·T, Z·T) is no
                  rewrite: accepting it would let [simplify] spin on it
                  until its budget runs out. *)
               let out = ref [] in
               for k = n - 1 downto 0 do
                 if k = j then out := replacement @ !out
                 else if k <> i then out := gates.(k) :: !out
               done;
               result := Some (Array.of_list !out);
               raise Exit
           | _ ->
               (* phase gates on the same qubit commute with each other even
                  when not fusable with the scan gate *)
               let commutes =
                 disjoint gates.(i) gates.(j)
                 ||
                 match (target_of_phase gates.(i), target_of_phase gates.(j)) with
                 | Some qa, Some qb -> qa = qb
                 | _ -> false
               in
               if commutes then probe (j + 1) else ()
       in
       probe (i + 1)
     done
   with Exit -> ());
  !result

(** [simplify c] applies cancellation/fusion to a fixpoint. The unitary is
    preserved exactly. *)
let simplify c =
  let gates = ref (Circuit.to_array c) in
  let budget = ref ((Array.length !gates * 8) + 64) in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    decr budget;
    match rewrite_once !gates with
    | Some g -> gates := g
    | None -> continue_ := false
  done;
  Circuit.of_gates (Circuit.num_qubits c) (Array.to_list !gates)
