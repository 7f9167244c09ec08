(** Peephole optimization on quantum circuits.

    Complements {!Tpar}: cancels adjacent inverse pairs (H·H, X·X,
    CNOT·CNOT, S·S†, …), fuses adjacent rotations on the same qubit
    (T·T = S, S·S = Z, Rz·Rz), and lets gates commute across gates acting
    on disjoint qubits to meet their partners.

    One left-to-right pass does it. Every gate that survives so far keeps
    the slot of its arrival position, and each qubit keeps a stack of the
    live slots that touch it. The survivors never contain a pair that
    could fuse, so an arriving gate can only fuse with the gate on top of
    all its qubits' stacks, or, for a phase gate on q, with a member of
    the run of phase gates on top of q's stack (phase gates on one qubit
    commute). It takes the earliest member whose fusion leaves at most one
    gate; the fused gate takes the arriving gate's slot and arrives again.
    A run of survivors holds at most three gates (any two Rz fuse, and
    two other phase gates only stay apart when their eighths sum to 3 or
    5), so each arrival costs O(qubits of the gate). *)

open Gate

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
  if Gate.equal a (adjoint b) then Some []
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

(* A fusion that gives two gates back (S·T, Z·T) is no rewrite. *)
let rewrite a b =
  match fuse a b with Some ([] | [ _ ]) as r -> r | _ -> None

(** [simplify c] cancels and fuses gates in one pass; the result holds no
    pair of gates that could still fuse. The unitary is preserved
    exactly. *)
let simplify c =
  let n = Circuit.num_qubits c in
  let input = Circuit.to_array c in
  let slots = Array.make (Array.length input) None in
  let gate s = Option.get slots.(s) in
  (* a gate that touches no qubit (an [Mcz []]) lives on wire n *)
  let wires g = match qubits g with [] -> [ n ] | qs -> qs in
  let stacks = Array.make (n + 1) [||] and depth = Array.make (n + 1) 0 in
  let push s q =
    let d = depth.(q) in
    if d = Array.length stacks.(q) then begin
      let grown = Array.make (max 8 (2 * d)) 0 in
      Array.blit stacks.(q) 0 grown 0 d;
      stacks.(q) <- grown
    end;
    stacks.(q).(d) <- s;
    depth.(q) <- d + 1
  in
  let top q = if depth.(q) = 0 then -1 else stacks.(q).(depth.(q) - 1) in
  (* s sits on top of each of its stacks, or inside the phase run on top *)
  let remove s =
    List.iter
      (fun q ->
        let st = stacks.(q) and d = depth.(q) in
        let k = ref (d - 1) in
        while st.(!k) <> s do decr k done;
        Array.blit st (!k + 1) st !k (d - 1 - !k);
        depth.(q) <- d - 1)
      (wires (gate s));
    slots.(s) <- None
  in
  (* the slot an arriving gate fuses with, and their fusion *)
  let partner g =
    match target_of_phase g with
    | Some q ->
        let st = stacks.(q) in
        let best = ref None in
        let k = ref (depth.(q) - 1) in
        while !k >= 0 && target_of_phase (gate st.(!k)) <> None do
          Option.iter (fun r -> best := Some (st.(!k), r)) (rewrite (gate st.(!k)) g);
          decr k
        done;
        !best
    | None ->
        let ws = wires g in
        let s = top (List.hd ws) in
        if s >= 0 && List.for_all (fun q -> top q = s) ws then
          Option.map (fun r -> (s, r)) (rewrite (gate s) g)
        else None
  in
  let rec arrive p g =
    match partner g with
    | None ->
        slots.(p) <- Some g;
        List.iter (push p) (wires g)
    | Some (s, fused) ->
        remove s;
        List.iter (arrive p) fused
  in
  Array.iteri arrive input;
  Circuit.of_rev_gates n
    (Array.fold_left (fun acc s -> match s with Some g -> g :: acc | None -> acc) [] slots)
