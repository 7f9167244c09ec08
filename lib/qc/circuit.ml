(** Quantum circuits: ordered gate cascades on a fixed qubit count. *)

type t = { n : int; len : int; rev_gates : Gate.t list }

(** [empty n] is the identity circuit on [n] qubits. The container itself
    scales to large registers (the stabilizer backend consumes wide
    Clifford circuits); the dense backends impose their own width caps. *)
let empty n =
  if n < 1 || n > 4096 then invalid_arg "Circuit.empty: bad qubit count";
  { n; len = 0; rev_gates = [] }

let check_qubit n q = if q < 0 || q >= n then invalid_arg "Circuit: qubit out of range"

let rec check_qubits n = function
  | [] -> ()
  | q :: qs ->
      check_qubit n q;
      check_qubits n qs

(* every qubit of [g] within [c]: matches on the gate, so that checking
   allocates nothing *)
let check c g =
  let n = c.n in
  let open Gate in
  match g with
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q | Rz (_, q) -> check_qubit n q
  | Cnot (a, b) | Cz (a, b) | Swap (a, b) ->
      check_qubit n a;
      check_qubit n b
  | Ccx (a, b, t) | Ccz (a, b, t) ->
      check_qubit n a;
      check_qubit n b;
      check_qubit n t
  | Mcx (cs, t) ->
      check_qubits n cs;
      check_qubit n t
  | Mcz qs -> check_qubits n qs

(** [add c g] appends [g]. *)
let add c g =
  check c g;
  { c with len = c.len + 1; rev_gates = g :: c.rev_gates }

(** [add_list c gs] appends [gs] in order, as folding {!add} would:
    each gate checked once, then one record. *)
let add_list c gs =
  let rec count k = function
    | [] -> k
    | g :: rest ->
        check c g;
        count (k + 1) rest
  in
  let k = count 0 gs in
  { c with len = c.len + k; rev_gates = List.rev_append gs c.rev_gates }

let of_gates n gs = add_list (empty n) gs

(** [of_rev_gates n gs] builds a circuit from a {e reversed} gate list
    (last-applied gate first) — the natural accumulator shape, so callers
    that build gate lists by consing need not reverse before handing
    over. *)
let of_rev_gates n rev_gates =
  let c = { (empty n) with len = List.length rev_gates; rev_gates } in
  List.iter (check c) rev_gates;
  c

(** [gates c] lists gates in application order. *)
let gates c = List.rev c.rev_gates

let num_qubits c = c.n
let num_gates c = c.len

(** [to_array c] is the gates in application order as a fresh array.

    The array is seeded with a constant gate, then filled. Past 256 gates
    it is made in the major heap, where a seed fresh from the minor heap
    (as [Array.of_list] would take the last gate) forces a minor
    collection on the first walk over every freshly built circuit. *)
let to_array c =
  let a = Array.make c.len (Gate.X 0) in
  let rec fill i = function
    | [] -> ()
    | g :: rest ->
        Array.unsafe_set a i g;
        fill (i - 1) rest
  in
  fill (c.len - 1) c.rev_gates;
  a

(** [iter f c] applies [f] to every gate in application order. Unlike
    [List.iter f (gates c)] this allocates a single scratch array instead
    of a reversed list — the form the hot simulator/export loops use. *)
let iter f c = Array.iter f (to_array c)

(** [fold f init c] folds over the gates in application order, with the
    same single-array allocation as {!iter}. *)
let fold f init c = Array.fold_left f init (to_array c)

(** [append a b] runs [a] then [b]. *)
let append a b =
  if a.n <> b.n then invalid_arg "Circuit.append: qubit mismatch";
  { a with len = a.len + b.len; rev_gates = b.rev_gates @ a.rev_gates }

(** [dagger c] is the adjoint circuit: each gate inverted, order
    reversed. *)
let dagger c = { c with rev_gates = List.rev_map Gate.adjoint c.rev_gates }

(** [widen c n] reinterprets [c] on [n >= num_qubits c] qubits. *)
let widen c n =
  if n < c.n then invalid_arg "Circuit.widen: shrinking";
  { c with n }

(** [map_qubits ~n f c] relabels qubits through [f]. *)
let map_qubits ~n f c =
  let remap g =
    let open Gate in
    match g with
    | X q -> X (f q)
    | Y q -> Y (f q)
    | Z q -> Z (f q)
    | H q -> H (f q)
    | S q -> S (f q)
    | Sdg q -> Sdg (f q)
    | T q -> T (f q)
    | Tdg q -> Tdg (f q)
    | Rz (a, q) -> Rz (a, f q)
    | Cnot (a, b) -> Cnot (f a, f b)
    | Cz (a, b) -> Cz (f a, f b)
    | Swap (a, b) -> Swap (f a, f b)
    | Ccx (a, b, c) -> Ccx (f a, f b, f c)
    | Ccz (a, b, c) -> Ccz (f a, f b, f c)
    | Mcx (cs, t) -> Mcx (List.map f cs, f t)
    | Mcz qs -> Mcz (List.map f qs)
  in
  of_rev_gates n (List.map remap c.rev_gates)

(** [structural_key c] is a compact string identifying [c] up to exact
    structural equality (qubit count plus every gate in application
    order; [Rz] angles rendered losslessly with [%h]) — the index used by
    the pass-manager's circuit-level result cache. *)
let structural_key c =
  let buf = Buffer.create (16 + (8 * c.len)) in
  Buffer.add_string buf (string_of_int c.n);
  let q i = Buffer.add_string buf (string_of_int i) in
  let qs l = List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; q x) l in
  let add (g : Gate.t) =
    Buffer.add_char buf ';';
    Buffer.add_string buf (Gate.name g);
    Buffer.add_char buf ' ';
    let open Gate in
    match g with
    | X a | Y a | Z a | H a | S a | Sdg a | T a | Tdg a -> q a
    | Rz (angle, a) ->
        Buffer.add_string buf (Printf.sprintf "%h@" angle);
        q a
    | Cnot (a, b) | Cz (a, b) | Swap (a, b) -> qs [ a; b ]
    | Ccx (a, b, t) | Ccz (a, b, t) -> qs [ a; b; t ]
    | Mcx (cs, t) -> qs (cs @ [ t ])
    | Mcz l -> qs l
  in
  List.iter add (List.rev c.rev_gates);
  Buffer.contents buf

(** [t_count c] counts T and T† gates. *)
let t_count c =
  List.fold_left (fun acc g -> if Gate.is_t g then acc + 1 else acc) 0 c.rev_gates

(** [count_matching p c] counts gates satisfying [p]. *)
let count_matching p c =
  List.fold_left (fun acc g -> if p g then acc + 1 else acc) 0 c.rev_gates

(* Greedy layering: a gate goes into the earliest layer after the busiest of
   its qubits. [weight] selects which gates advance the depth counter. *)
let depth_by weight c =
  let avail = Array.make c.n 0 in
  fold
    (fun acc g ->
      let qs = Gate.qubits g in
      let start = List.fold_left (fun m q -> max m avail.(q)) 0 qs in
      let d = start + weight g in
      List.iter (fun q -> avail.(q) <- d) qs;
      max acc d)
    0 c

(** [depth c] is the circuit depth under greedy ASAP layering. *)
let depth c = depth_by (fun _ -> 1) c

(** [t_depth c] is the number of T-layers (only T/T† advance the count) —
    the latency measure the T-par paper optimizes. *)
let t_depth c = depth_by (fun g -> if Gate.is_t g then 1 else 0) c

let pp ppf c =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Gate.pp) (gates c)
