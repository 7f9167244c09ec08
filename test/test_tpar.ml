open Qc

let test_tt_merges_to_s () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "T count 0" 0 (Circuit.t_count c');
  Alcotest.(check bool) "equals S" true (Helpers.same_unitary_phase c c')

let test_t_tdg_cancels () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.Tdg 0 ] in
  Alcotest.(check int) "cancels" 0 (Circuit.num_gates (Tpar.optimize c))

let test_merge_through_cnot () =
  (* T(0); CNOT(0,1); T(0): qubit 0's parity is unchanged by the CNOT, so
     the two Ts merge into S *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.Cnot (0, 1); Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_parity_matching_across_wires () =
  (* CNOT(0,1) puts x0^x1 on wire 1; T there, then CNOT(1,0)? craft a case
     where the same parity appears on different wires and phases merge *)
  let c =
    Circuit.of_gates 2
      [ Gate.Cnot (0, 1); Gate.T 1; Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.T 0;
        Gate.Cnot (1, 0) ]
  in
  (* the parity x0^x1 appears on wire 1 (first T) and later on wire 0
     (second T): the rotations must merge *)
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged to S" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_h_is_barrier () =
  (* T; H; T must NOT merge *)
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.H 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "two Ts remain" 2 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_x_conjugation () =
  (* X; T; X equals T† up to global phase — the negated-parity bookkeeping *)
  let c = Circuit.of_gates 1 [ Gate.X 0; Gate.T 0; Gate.X 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "phases cancel" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_rz_angles_fold () =
  let c = Circuit.of_gates 1 [ Gate.Rz (0.3, 0); Gate.Rz (0.4, 0) ] in
  let c' = Tpar.optimize c in
  (match Circuit.gates c' with
  | [ Gate.Rz (a, 0) ] -> Alcotest.(check (float 1e-12)) "summed" 0.7 a
  | gs -> Alcotest.failf "expected one Rz, got %d gates" (List.length gs));
  let c = Circuit.of_gates 1 [ Gate.Rz (0.3, 0); Gate.Rz (-0.3, 0) ] in
  Alcotest.(check int) "cancel to nothing" 0 (Circuit.num_gates (Tpar.optimize c))

let test_ccz_overlap_folding () =
  (* the motivating case: two CCZs sharing two controls fold 14 T -> 8 T *)
  let c = Circuit.of_gates 4 (Clifford_t.ccz_7t 0 1 2 @ Clifford_t.ccz_7t 0 1 3) in
  let c', rep = Tpar.optimize_report c in
  Alcotest.(check int) "before" 14 rep.Tpar.t_before;
  Alcotest.(check int) "after" 8 rep.Tpar.t_after;
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_diagonal_passthrough () =
  (* CZ between two Ts on the same parity must not block merging *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.Cz (0, 1); Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged through CZ" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_report_counts () =
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.T 0; Gate.H 1 ] in
  let _, rep = Tpar.optimize_report c in
  Alcotest.(check int) "t before" 2 rep.Tpar.t_before;
  Alcotest.(check int) "t after" 0 rep.Tpar.t_after

let prop_preserves_unitary =
  Helpers.prop "tpar preserves the unitary up to global phase" ~count:200
    (Helpers.qcircuit_gen 3 25)
    (fun c -> Helpers.same_unitary_phase c (Tpar.optimize c))

let prop_never_increases_t =
  Helpers.prop "tpar never increases the T-count" (Helpers.qcircuit_gen 4 25) (fun c ->
      Circuit.t_count (Tpar.optimize c) <= Circuit.t_count c)

let prop_idempotent_t_count =
  Helpers.prop "tpar is idempotent on the T-count" (Helpers.qcircuit_gen 3 20) (fun c ->
      let once = Tpar.optimize c in
      Circuit.t_count (Tpar.optimize once) = Circuit.t_count once)

(* The rebuild-every-region T-par [Tpar.optimize] replaced, kept as the
   reference for the lazy version: at every barrier it resets all n wire
   parities and re-adds the n input parities to a fresh table, then
   emits each region's rotations from an array of insertion lists. *)
type reference_pending = {
  mutable eighths : int;
  mutable angle : float;
  position : int;
  qubit : int;
  neg_at_first : bool;
}

let reference_optimize c =
  let open Gate in
  let n = Circuit.num_qubits c in
  let const_bit = 1 lsl n in
  let out = ref [] in
  let parity = Array.init n (fun q -> 1 lsl q) in
  let skeleton = ref [] and skeleton_len = ref 0 in
  let pend : (int, reference_pending) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let note_parity q =
    let p = parity.(q) in
    let linear = p land lnot const_bit in
    if linear <> 0 && not (Hashtbl.mem pend linear) then begin
      Hashtbl.add pend linear
        { eighths = 0; angle = 0.; position = !skeleton_len; qubit = q;
          neg_at_first = p land const_bit <> 0 };
      order := linear :: !order
    end
  in
  let reset_region () =
    Array.iteri (fun q _ -> parity.(q) <- 1 lsl q) parity;
    skeleton := [];
    skeleton_len := 0;
    Hashtbl.reset pend;
    order := [];
    Array.iteri (fun q _ -> note_parity q) parity
  in
  let flush () =
    if Obs.enabled () && Hashtbl.length pend > 0 then begin
      Obs.observe "qc.tpar.partition_size" (float_of_int (Hashtbl.length pend));
      Obs.count "qc.tpar.regions"
    end;
    let inserts = Array.make (!skeleton_len + 1) [] in
    List.iter
      (fun linear ->
        let p = Hashtbl.find pend linear in
        let eighths = if p.neg_at_first then -p.eighths else p.eighths in
        let angle = if p.neg_at_first then -.p.angle else p.angle in
        let gs = Tpar.phase_gates_of ~eighths ~angle p.qubit in
        if gs <> [] then inserts.(p.position) <- inserts.(p.position) @ gs)
      (List.rev !order);
    let skel = Array.of_list (List.rev !skeleton) in
    for i = 0 to !skeleton_len do
      List.iter (fun g -> out := g :: !out) inserts.(i);
      if i < !skeleton_len then out := skel.(i) :: !out
    done
  in
  let add_phase q ~eighths ~angle =
    let p = parity.(q) in
    let linear = p land lnot const_bit in
    if linear <> 0 then begin
      note_parity q;
      let entry = Hashtbl.find pend linear in
      let sign = if p land const_bit <> 0 then -1 else 1 in
      entry.eighths <- entry.eighths + (sign * eighths);
      entry.angle <- entry.angle +. (Float.of_int sign *. angle)
    end
  in
  reset_region ();
  Circuit.iter
    (fun g ->
      match g with
      | Cnot (cq, t) ->
          parity.(t) <- parity.(t) lxor parity.(cq);
          skeleton := g :: !skeleton;
          incr skeleton_len;
          note_parity t
      | X q ->
          parity.(q) <- parity.(q) lxor const_bit;
          skeleton := g :: !skeleton;
          incr skeleton_len;
          note_parity q
      | Z q -> add_phase q ~eighths:4 ~angle:0.
      | S q -> add_phase q ~eighths:2 ~angle:0.
      | Sdg q -> add_phase q ~eighths:(-2) ~angle:0.
      | T q -> add_phase q ~eighths:1 ~angle:0.
      | Tdg q -> add_phase q ~eighths:(-1) ~angle:0.
      | Rz (a, q) -> add_phase q ~eighths:0 ~angle:a
      | Cz _ | Ccz _ | Mcz _ ->
          skeleton := g :: !skeleton;
          incr skeleton_len
      | g ->
          flush ();
          out := g :: !out;
          reset_region ())
    c;
  flush ();
  Circuit.of_rev_gates n !out

let test_input_parities_in_qubit_order () =
  (* rotations on the input parities of qubits 3 then 1 come out at the
     region's start in qubit order, before the CNOT they met after *)
  let c = Circuit.of_gates 4 [ Gate.Cnot (0, 2); Gate.T 3; Gate.S 1; Gate.H 0; Gate.T 0 ] in
  let expected = [ Gate.S 1; Gate.T 3; Gate.Cnot (0, 2); Gate.H 0; Gate.T 0 ] in
  Alcotest.(check bool) "reference" true (Circuit.gates (reference_optimize c) = expected);
  Alcotest.(check bool) "lazy" true (Circuit.gates (Tpar.optimize c) = expected)

(* the partition sizes and region count T-par records *)
let tpar_telemetry optimize c =
  let m = Obs.Memory.create () in
  Obs.set_sink (Some (Obs.Memory.sink m));
  Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () -> ignore (optimize c));
  let events = Obs.Memory.events m in
  ( Obs.Summary.sample_values events "qc.tpar.partition_size",
    List.length
      (List.filter
         (function Obs.Counter { name = "qc.tpar.regions"; _ } -> true | _ -> false)
         events) )

(* Random circuits on 1 to 61 qubits over every gate kind: the barriers
   H, Y, Swap, Ccx and Mcx, the region gates CNOT, X and the phases
   (Rz angles drawn so that sums cancel, exactly or to a few ulps), and
   the pass-through Cz, Ccz and Mcz. Most gates act on a few hot qubits,
   so that parities meet again. *)
let tpar_input_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 61 in
  let* hot = int_bound (n - 1) in
  let qubit =
    let* local = int_bound 3 in
    if local > 0 then map (fun d -> (hot + d) mod n) (int_bound (min n 5 - 1))
    else int_bound (n - 1)
  in
  (* up to [k] distinct qubits, in random order *)
  let qubits k =
    let distinct = List.fold_left (fun acc q -> if List.mem q acc then acc else q :: acc) [] in
    map distinct (list_size (return k) qubit)
  in
  let gate =
    let* q = qubit in
    let* qs = qubits 4 in
    let pair f g = match qs with a :: b :: _ -> return (f a b) | _ -> return (g q) in
    let triple f g = match qs with a :: b :: t :: _ -> return (f a b t) | _ -> g in
    let* kind = int_bound 23 in
    match kind with
    | 0 | 1 | 2 | 3 | 4 -> pair (fun a b -> Gate.Cnot (a, b)) (fun q -> Gate.X q)
    | 5 | 6 | 7 -> return (Gate.T q)
    | 8 | 9 -> return (Gate.Tdg q)
    | 10 -> return (Gate.S q)
    | 11 -> return (Gate.Sdg q)
    | 12 -> return (Gate.Z q)
    | 13 | 14 -> return (Gate.X q)
    | 15 | 16 ->
        map (fun a -> Gate.Rz (a, q)) (oneofl [ 0.25; -0.25; 0.5; -0.75; 0.1; -0.3 ])
    | 17 -> pair (fun a b -> Gate.Cz (a, b)) (fun q -> Gate.Z q)
    | 18 -> triple (fun a b t -> Gate.Ccz (a, b, t)) (return (Gate.Mcz qs))
    | 19 -> return (Gate.Mcz qs)
    | 20 -> oneofl [ Gate.H q; Gate.Y q ]
    | 21 -> pair (fun a b -> Gate.Swap (a, b)) (fun q -> Gate.H q)
    | 22 -> triple (fun a b t -> Gate.Ccx (a, b, t)) (return (Gate.Y q))
    | _ -> (
        match List.rev qs with
        | t :: (_ :: _ as cs) -> return (Gate.Mcx (cs, t))
        | _ -> return (Gate.H q))
  in
  let* len = int_range 0 90 in
  map (Circuit.of_gates n) (list_size (return len) gate)

let prop_tpar_matches_reference =
  Helpers.prop "tpar = reference, random circuits on 1..61 qubits" ~count:500 tpar_input_gen
    (fun c -> Circuit.gates (Tpar.optimize c) = Circuit.gates (reference_optimize c))

let prop_tpar_telemetry_matches_reference =
  Helpers.prop "tpar telemetry = reference" ~count:100 tpar_input_gen (fun c ->
      tpar_telemetry Tpar.optimize c = tpar_telemetry reference_optimize c)

let lowered_gen ~rccx_ladder =
  QCheck2.Gen.map
    (fun rc ->
      let options = { Clifford_t.default_options with rccx_ladder } in
      fst (Clifford_t.compile ~options (Clifford_t.of_rcircuit rc)))
    (Helpers.rcircuit_gen 5 12)

let prop_tpar_lowered_matches_reference ~rccx_ladder =
  Helpers.prop
    (Printf.sprintf "tpar = reference, %s lowered MCT cascades"
       (if rccx_ladder then "RCCX" else "7-T"))
    ~count:150 (lowered_gen ~rccx_ladder)
    (fun c -> Circuit.gates (Tpar.optimize c) = Circuit.gates (reference_optimize c))

(* ---- peephole Opt ---- *)

(* The fusion rule [Opt.simplify] used to share with this reference,
   kept so the reference does not share [Opt.rewrite]: the replacement
   of gates a then b (adjacent after commuting), which is two gates when
   phases fuse to S·T or Z·T. *)
let target_of_phase = function
  | Gate.Z q | Gate.S q | Gate.Sdg q | Gate.T q | Gate.Tdg q | Gate.Rz (_, q) -> Some q
  | _ -> None

let eighths_of = function
  | Gate.Z _ -> Some 4
  | Gate.S _ -> Some 2
  | Gate.Sdg _ -> Some 6
  | Gate.T _ -> Some 1
  | Gate.Tdg _ -> Some 7
  | _ -> None

let reference_fuse a b =
  if Gate.equal a (Gate.adjoint b) then Some []
  else
    match (target_of_phase a, target_of_phase b) with
    | Some qa, Some qb when qa = qb -> (
        match (eighths_of a, eighths_of b) with
        | Some ka, Some kb -> Some (Tpar.phase_gates_of ~eighths:(ka + kb) ~angle:0. qa)
        | _ -> (
            match (a, b) with
            | Gate.Rz (x, _), Gate.Rz (y, _) ->
                if Float.abs (x +. y) < 1e-12 then Some [] else Some [ Gate.Rz (x +. y, qa) ]
            | _ -> None))
    | _ -> None

(* The restart-from-zero fixpoint [Opt.simplify] replaced, kept as the
   reference for the one-pass version: find the earliest gate i that
   commutes right (past gates on other qubits, or past phase gates on its
   own qubit when it is one) onto a gate j it fuses with to at most one
   gate; drop i, put the fusion at j, and start over from gate 0. *)
let reference_step gates =
  let n = Array.length gates in
  let disjoint a b =
    let qb = Gate.qubits b in
    not (List.exists (fun q -> List.mem q qb) (Gate.qubits a))
  in
  let result = ref None in
  (try
     for i = 0 to n - 2 do
       let rec probe j =
         if j >= n then ()
         else
           match reference_fuse gates.(i) gates.(j) with
           | Some replacement when List.length replacement < 2 ->
               let out = ref [] in
               for k = n - 1 downto 0 do
                 if k = j then out := replacement @ !out
                 else if k <> i then out := gates.(k) :: !out
               done;
               result := Some (Array.of_list !out);
               raise Exit
           | _ ->
               let commutes =
                 disjoint gates.(i) gates.(j)
                 ||
                 match (target_of_phase gates.(i), target_of_phase gates.(j)) with
                 | Some qa, Some qb -> qa = qb
                 | _ -> false
               in
               if commutes then probe (j + 1)
       in
       probe (i + 1)
     done
   with Exit -> ());
  !result

let reference_simplify c =
  let gates = ref (Circuit.to_array c) in
  let budget = ref ((Array.length !gates * 8) + 64) in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    decr budget;
    match reference_step !gates with
    | Some g -> gates := g
    | None -> continue_ := false
  done;
  Circuit.of_gates (Circuit.num_qubits c) (Array.to_list !gates)

let test_opt_cancellation () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (0, 1) ] in
  Alcotest.(check int) "all cancel" 0 (Circuit.num_gates (Opt.simplify c))

let test_opt_fusion () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.T 0 ] in
  (match Circuit.gates (Opt.simplify c) with
  | [ Gate.S 0 ] -> ()
  | _ -> Alcotest.fail "TT should fuse to S");
  let c = Circuit.of_gates 1 [ Gate.S 0; Gate.S 0 ] in
  match Circuit.gates (Opt.simplify c) with
  | [ Gate.Z 0 ] -> ()
  | _ -> Alcotest.fail "SS should fuse to Z"

let test_opt_across_disjoint () =
  let c = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (1, 2); Gate.H 0 ] in
  let c' = Opt.simplify c in
  Alcotest.(check int) "H pair cancels across disjoint CNOT" 1 (Circuit.num_gates c')

let test_opt_two_gate_fusion_is_no_rewrite () =
  (* S·T and Z·T fuse back into the same two gates (eighths 3 and 5);
     taking that as a rewrite once made the fixpoint spin until its
     budget ran out and never reach the rewrites after it *)
  let kept what gates =
    let c = Circuit.of_gates 1 gates in
    Alcotest.(check bool) what true (Circuit.gates (Opt.simplify c) = gates)
  in
  kept "S T stays" [ Gate.S 0; Gate.T 0 ];
  kept "Z T stays" [ Gate.Z 0; Gate.T 0 ];
  (* a later fusion is still found past such a pair *)
  let c = Circuit.of_gates 2 [ Gate.S 0; Gate.T 0; Gate.H 1; Gate.H 1 ] in
  Alcotest.(check int) "H pair after S T cancels" 2 (Circuit.num_gates (Opt.simplify c))

let test_opt_phase_run_partner () =
  (* T† meets the run S T on qubit 0 and fuses with both; the earliest,
     S, is the reference's partner. The T that gives takes T†'s slot, past
     the H, and meets the T there. *)
  let c = Circuit.of_gates 2 [ Gate.S 0; Gate.T 0; Gate.H 1; Gate.Tdg 0 ] in
  let expected = [ Gate.H 1; Gate.S 0 ] in
  Alcotest.(check bool) "reference" true (Circuit.gates (reference_simplify c) = expected);
  Alcotest.(check bool) "one pass" true (Circuit.gates (Opt.simplify c) = expected)

let prop_opt_preserves_unitary =
  Helpers.prop "peephole preserves the unitary exactly" ~count:150
    (Helpers.qcircuit_gen 3 20)
    (fun c -> Helpers.same_unitary c (Opt.simplify c))

let prop_opt_never_grows =
  Helpers.prop "peephole never grows" (Helpers.qcircuit_gen 3 20) (fun c ->
      Circuit.num_gates (Opt.simplify c) <= Circuit.num_gates c)

(* T-par output of a random MCT cascade lowered to Clifford+T *)
let lowered_tpar_gen ~rccx_ladder = QCheck2.Gen.map Tpar.optimize (lowered_gen ~rccx_ladder)

let prop_opt_matches_reference ~rccx_ladder =
  Helpers.prop
    (Printf.sprintf "peephole = reference, %s T-par output"
       (if rccx_ladder then "RCCX" else "7-T"))
    ~count:150 (lowered_tpar_gen ~rccx_ladder)
    (fun c -> Circuit.gates (Opt.simplify c) = Circuit.gates (reference_simplify c))

let prop_opt_fixpoint =
  Helpers.prop "peephole output has no rewrite left" ~count:300 (Helpers.qcircuit_gen 4 40)
    (fun c -> reference_step (Circuit.to_array (Opt.simplify c)) = None)

let prop_opt_not_above_reference =
  Helpers.prop "peephole keeps no more gates than reference" ~count:300
    (Helpers.qcircuit_gen 4 40)
    (fun c -> Circuit.num_gates (Opt.simplify c) <= Circuit.num_gates (reference_simplify c))

let () =
  Alcotest.run "tpar"
    [ ( "tpar",
        [ Alcotest.test_case "TT -> S" `Quick test_tt_merges_to_s;
          Alcotest.test_case "T T-dagger cancels" `Quick test_t_tdg_cancels;
          Alcotest.test_case "merge through CNOT" `Quick test_merge_through_cnot;
          Alcotest.test_case "cross-wire parity" `Quick test_parity_matching_across_wires;
          Alcotest.test_case "H is a barrier" `Quick test_h_is_barrier;
          Alcotest.test_case "X conjugation" `Quick test_x_conjugation;
          Alcotest.test_case "Rz folding" `Quick test_rz_angles_fold;
          Alcotest.test_case "CCZ overlap folds 14->8" `Quick test_ccz_overlap_folding;
          Alcotest.test_case "diagonal pass-through" `Quick test_diagonal_passthrough;
          Alcotest.test_case "report" `Quick test_report_counts;
          prop_preserves_unitary;
          prop_never_increases_t;
          prop_idempotent_t_count;
          Alcotest.test_case "input parities in qubit order" `Quick
            test_input_parities_in_qubit_order;
          prop_tpar_matches_reference;
          prop_tpar_telemetry_matches_reference;
          prop_tpar_lowered_matches_reference ~rccx_ladder:true;
          prop_tpar_lowered_matches_reference ~rccx_ladder:false ] );
      ( "opt",
        [ Alcotest.test_case "cancellation" `Quick test_opt_cancellation;
          Alcotest.test_case "fusion" `Quick test_opt_fusion;
          Alcotest.test_case "across disjoint" `Quick test_opt_across_disjoint;
          Alcotest.test_case "two-gate fusion is no rewrite" `Quick
            test_opt_two_gate_fusion_is_no_rewrite;
          Alcotest.test_case "phase-run partner" `Quick test_opt_phase_run_partner;
          prop_opt_preserves_unitary;
          prop_opt_never_grows;
          prop_opt_matches_reference ~rccx_ladder:true;
          prop_opt_matches_reference ~rccx_ladder:false;
          prop_opt_fixpoint;
          prop_opt_not_above_reference ] ) ]
