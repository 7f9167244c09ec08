(** XOR-AND graphs (XAGs): multi-level logic networks with structural
    hashing, the representation behind hierarchical reversible synthesis
    (paper refs [55, 63]).

    Signals are node ids with an optional complement bit, encoded as
    [2*id + c]. Node 0 is the constant false, so signal 1 is constant
    true. *)

type node =
  | Const (* node 0 only *)
  | Input of int
  | And of int * int (* operand signals *)
  | Xor of int * int

type t = {
  mutable nodes : node array;
  mutable next : int;
  strash : (node, int) Hashtbl.t;
  num_inputs : int;
  mutable outputs : int list; (* output signals, in reverse insertion order *)
}

(* --- signals --- *)

let signal_of_node id = 2 * id
let node_of_signal s = s / 2
let is_complemented s = s land 1 = 1
let complement s = s lxor 1
let const_false = 0
let const_true = 1

let create num_inputs =
  let nodes = Array.make (max 16 (2 * num_inputs)) Const in
  for i = 0 to num_inputs - 1 do
    nodes.(i + 1) <- Input i
  done;
  { nodes; next = num_inputs + 1; strash = Hashtbl.create 256; num_inputs;
    outputs = [] }

(** [input g i] is the signal of primary input [i]. *)
let input g i =
  if i < 0 || i >= g.num_inputs then invalid_arg "Xag.input";
  signal_of_node (i + 1)

let alloc g n =
  match Hashtbl.find_opt g.strash n with
  | Some id -> signal_of_node id
  | None ->
      if g.next >= Array.length g.nodes then begin
        let bigger = Array.make (2 * Array.length g.nodes) Const in
        Array.blit g.nodes 0 bigger 0 g.next;
        g.nodes <- bigger
      end;
      let id = g.next in
      g.nodes.(id) <- n;
      g.next <- id + 1;
      Hashtbl.add g.strash n id;
      signal_of_node id

(** [and_ g a b] builds (or reuses) an AND node, with constant propagation
    and normalization of operand order. *)
let and_ g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = const_false then const_false
  else if a = const_true then b
  else if a = b then a
  else if a = complement b then const_false
  else alloc g (And (a, b))

(** [xor g a b] builds (or reuses) an XOR node; complements are pulled out
    so stored operands are always uncomplemented. *)
let xor g a b =
  let c = (a land 1) lxor (b land 1) in
  let a = a land lnot 1 and b = b land lnot 1 in
  let a, b = if a <= b then (a, b) else (b, a) in
  let s =
    if a = const_false then b
    else if a = b then const_false
    else alloc g (Xor (a, b))
  in
  s lxor c

let not_ s = complement s
let or_ g a b = complement (and_ g (complement a) (complement b))

(** [add_output g s] registers [s] as the next primary output. *)
let add_output g s = g.outputs <- s :: g.outputs

(** [outputs g] lists output signals in registration order. *)
let outputs g = List.rev g.outputs

let num_inputs g = g.num_inputs

(** [num_nodes g] counts internal (And/Xor) nodes. *)
let num_nodes g =
  let c = ref 0 in
  for id = 0 to g.next - 1 do
    match g.nodes.(id) with And _ | Xor _ -> incr c | _ -> ()
  done;
  !c

(** [num_ands g] counts AND nodes (the multiplicative complexity proxy). *)
let num_ands g =
  let c = ref 0 in
  for id = 0 to g.next - 1 do
    match g.nodes.(id) with And _ -> incr c | _ -> ()
  done;
  !c

(** [of_bexpr n e] builds a single-output XAG from an expression on [n]
    inputs. *)
let of_bexpr n e =
  let g = create n in
  let rec go = function
    | Logic.Bexpr.Const b -> if b then const_true else const_false
    | Logic.Bexpr.Var i -> input g i
    | Logic.Bexpr.Not a -> complement (go a)
    | Logic.Bexpr.And (a, b) -> and_ g (go a) (go b)
    | Logic.Bexpr.Or (a, b) -> or_ g (go a) (go b)
    | Logic.Bexpr.Xor (a, b) -> xor g (go a) (go b)
  in
  add_output g (go e);
  g

(** [of_esops n esops] builds a multi-output XAG from ESOP covers: each
    cube is an AND tree, each cover an XOR chain. *)
let of_esops n (esops : Logic.Esop.t list) =
  let g = create n in
  List.iter
    (fun esop ->
      let cube_signal c =
        List.fold_left
          (fun acc (v, pol) ->
            let lit = if pol then input g v else complement (input g v) in
            and_ g acc lit)
          const_true
          (Logic.Cube.literals n c)
      in
      let s = List.fold_left (fun acc c -> xor g acc (cube_signal c)) const_false esop in
      add_output g s)
    esops;
  g

(** [ripple_adder n] builds the structural ripple-carry adder
    [(a, b) ↦ a + b] on two [n]-bit operands ([a] on inputs [0..n-1], [b]
    on [n..2n-1]; [n+1] sum outputs, LSB first). Unlike the ESOP route this
    is a genuinely multi-level network (≈ 5 nodes per bit), the natural
    workload for hierarchical synthesis and pebbling experiments. *)
let ripple_adder n =
  let g = create (2 * n) in
  let carry = ref const_false in
  for i = 0 to n - 1 do
    let a = input g i and b = input g (n + i) in
    let axb = xor g a b in
    let sum = xor g axb !carry in
    (* carry' = (a ∧ b) ⊕ (carry ∧ (a ⊕ b)) — the standard full adder *)
    carry := xor g (and_ g a b) (and_ g !carry axb);
    add_output g sum
  done;
  add_output g !carry;
  g

(** [eval g x] evaluates all outputs on assignment [x], packed as an
    integer (output [j] = bit [j]). *)
let eval g x =
  let values = Array.make g.next false in
  for id = 1 to g.next - 1 do
    values.(id) <-
      (match g.nodes.(id) with
      | Const -> false
      | Input i -> Logic.Bitops.bit x i
      | And (a, b) ->
          (values.(node_of_signal a) <> is_complemented a)
          && (values.(node_of_signal b) <> is_complemented b)
      | Xor (a, b) ->
          (values.(node_of_signal a) <> is_complemented a)
          <> (values.(node_of_signal b) <> is_complemented b))
  done;
  List.fold_left
    (fun (acc, j) s ->
      let v = values.(node_of_signal s) <> is_complemented s in
      ((if v then acc lor (1 lsl j) else acc), j + 1))
    (0, 0) (outputs g)
  |> fst

(** [to_truth_tables g] tabulates every output. *)
let to_truth_tables g =
  List.mapi
    (fun j _ -> Logic.Truth_table.of_fun g.num_inputs (fun x -> Logic.Bitops.bit (eval g x) j))
    (outputs g)

(** [internal_nodes_topological g] lists internal node ids in dependency
    order (operands before users — node ids are already topological by
    construction). *)
let internal_nodes_topological g =
  let out = ref [] in
  for id = g.next - 1 downto 1 do
    match g.nodes.(id) with And _ | Xor _ -> out := id :: !out | _ -> ()
  done;
  !out

(** [node g id] exposes the node for synthesis back ends. *)
let node g id = g.nodes.(id)

(** [levels g] is the logic level of every node (inputs and constants at
    0), indexed by node id — the depth metric of the cut mapper. *)
let levels g =
  let lv = Array.make g.next 0 in
  for id = 1 to g.next - 1 do
    match g.nodes.(id) with
    | And (a, b) | Xor (a, b) ->
        lv.(id) <- 1 + max lv.(node_of_signal a) lv.(node_of_signal b)
    | _ -> ()
  done;
  lv

(** [fanouts g] counts, per node id, how many internal nodes and primary
    outputs reference the node — the sharing estimate of area-flow
    mapping. *)
let fanouts g =
  let fo = Array.make g.next 0 in
  for id = 1 to g.next - 1 do
    match g.nodes.(id) with
    | And (a, b) | Xor (a, b) ->
        fo.(node_of_signal a) <- fo.(node_of_signal a) + 1;
        fo.(node_of_signal b) <- fo.(node_of_signal b) + 1
    | _ -> ()
  done;
  List.iter (fun s -> fo.(node_of_signal s) <- fo.(node_of_signal s) + 1) (outputs g);
  fo

(** [structural_key g] is a canonical string of the DAG structure and
    output list — equal keys mean identical graphs (same construction),
    the memoization key of the synthesis cache. *)
let structural_key g =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int g.num_inputs);
  for id = g.num_inputs + 1 to g.next - 1 do
    match g.nodes.(id) with
    | And (x, y) -> Buffer.add_string b (Printf.sprintf "A%d,%d" x y)
    | Xor (x, y) -> Buffer.add_string b (Printf.sprintf "X%d,%d" x y)
    | _ -> ()
  done;
  List.iter (fun s -> Buffer.add_string b (Printf.sprintf "o%d" s)) (outputs g);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- rewriting --- *)

(* Leaves of the maximal XOR tree rooted at [id]: stored XOR operands are
   uncomplemented by construction, so the expansion carries no parity. *)
let xor_leaves g id =
  let acc = ref [] in
  let rec go id =
    match g.nodes.(id) with
    | Xor (a, b) -> go (node_of_signal a); go (node_of_signal b)
    | _ -> acc := id :: !acc
  in
  go id;
  !acc

(* Leaves of the maximal AND tree rooted at [id], as signals: a
   complemented AND operand is a leaf (¬(x∧y) does not distribute). *)
let and_leaves g id =
  let acc = ref [] in
  let rec go s =
    match g.nodes.(node_of_signal s) with
    | And (a, b) when not (is_complemented s) -> go a; go b
    | _ -> acc := s :: !acc
  in
  (match g.nodes.(id) with
  | And (a, b) -> go a; go b
  | _ -> invalid_arg "Xag.and_leaves");
  !acc

(* Copy the output cones of [g] into a fresh graph, flattening XOR and AND
   trees when [flatten] holds. *)
let rebuild ~flatten g =
  let g' = create g.num_inputs in
  let memo = Hashtbl.create 256 in
  let rec rebuild_signal s =
    let ns = rebuild_node (node_of_signal s) in
    if is_complemented s then complement ns else ns
  and rebuild_node id =
    match Hashtbl.find_opt memo id with
    | Some ns -> ns
    | None ->
        let ns =
          match g.nodes.(id) with
          | Const -> const_false
          | Input i -> input g' i
          | Xor (a, b) when not flatten -> xor g' (rebuild_signal a) (rebuild_signal b)
          | And (a, b) when not flatten -> and_ g' (rebuild_signal a) (rebuild_signal b)
          | Xor _ ->
              (* flatten, rebuild the leaves, cancel duplicate pairs *)
              let leaves = List.map rebuild_node (xor_leaves g id) in
              let counted = Hashtbl.create 8 in
              List.iter
                (fun l ->
                  let c = Option.value ~default:0 (Hashtbl.find_opt counted l) in
                  Hashtbl.replace counted l (c + 1))
                leaves;
              let survivors =
                List.sort compare
                  (Hashtbl.fold
                     (fun l c acc -> if c land 1 = 1 then l :: acc else acc)
                     counted [])
              in
              List.fold_left (fun acc l -> xor g' acc l) const_false survivors
          | And _ ->
              let leaves =
                List.sort_uniq compare (List.map rebuild_signal (and_leaves g id))
              in
              let contradictory =
                List.exists (fun l -> List.mem (complement l) leaves) leaves
              in
              if contradictory then const_false
              else List.fold_left (fun acc l -> and_ g' acc l) const_true leaves
        in
        Hashtbl.add memo id ns;
        ns
  in
  List.iter (fun s -> add_output g' (rebuild_signal s)) (outputs g);
  g'

(** [rewrite g] rebuilds the graph bottom-up with XOR-chain and AND-tree
    cleanup: XOR trees are flattened and pairwise-cancelled (x ⊕ x = 0),
    AND trees are flattened, deduplicated and contradiction-folded
    (x ∧ ¬x = 0), and only the output cones are copied, so dead and
    duplicate nodes vanish. Evaluation is preserved output-for-output.
    Flattening can duplicate a shared sub-XOR or sub-AND, so when the
    flattened graph comes out larger than a plain copy of the output
    cones, the copy is returned: the result never has more nodes than
    [g]. *)
let rewrite g =
  let flat = rebuild ~flatten:true g in
  let plain = rebuild ~flatten:false g in
  if num_nodes flat <= num_nodes plain then flat else plain

(* --- truth-table front end --- *)

(** [of_truth_tables fs] builds a multi-output XAG from truth tables via
    NPN-cached ESOP covers (see {!Cache.Cover}) — the bridge from the
    table-based flow into the XAG front end. *)
let of_truth_tables (fs : Logic.Truth_table.t list) =
  match fs with
  | [] -> invalid_arg "Xag.of_truth_tables: no outputs"
  | f0 :: _ ->
      let n = Logic.Truth_table.num_vars f0 in
      of_esops n (List.map Cache.Cover.minimize fs)

(** [of_truth_table f] is the single-output special case. *)
let of_truth_table f = of_truth_tables [ f ]

(** [cone g signals] is the set of internal node ids feeding the given
    signals, as a sorted list. *)
let cone g signals =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if id > 0 && not (Hashtbl.mem seen id) then
      match g.nodes.(id) with
      | And (a, b) | Xor (a, b) ->
          Hashtbl.add seen id ();
          go (node_of_signal a);
          go (node_of_signal b)
      | _ -> ()
  in
  List.iter (fun s -> go (node_of_signal s)) signals;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) seen [])
