open Rev
module Truth_table = Logic.Truth_table
module Funcgen = Logic.Funcgen

let test_constant_folding () =
  let g = Xag.create 2 in
  let a = Xag.input g 0 in
  Alcotest.(check int) "a AND 0" Xag.const_false (Xag.and_ g a Xag.const_false);
  Alcotest.(check int) "a AND 1" a (Xag.and_ g a Xag.const_true);
  Alcotest.(check int) "a AND a" a (Xag.and_ g a a);
  Alcotest.(check int) "a AND !a" Xag.const_false (Xag.and_ g a (Xag.complement a));
  Alcotest.(check int) "a XOR a" Xag.const_false (Xag.xor g a a);
  Alcotest.(check int) "a XOR 0" a (Xag.xor g a Xag.const_false);
  Alcotest.(check int) "a XOR 1" (Xag.complement a) (Xag.xor g a Xag.const_true)

let test_structural_hashing () =
  let g = Xag.create 2 in
  let a = Xag.input g 0 and b = Xag.input g 1 in
  let x1 = Xag.and_ g a b and x2 = Xag.and_ g b a in
  Alcotest.(check int) "shared node" x1 x2;
  Alcotest.(check int) "one internal node" 1 (Xag.num_nodes g)

let test_of_bexpr_eval () =
  let e = Logic.Bexpr.parse "(a & b) ^ (c | !d)" in
  let g = Xag.of_bexpr 4 e in
  let tt = Logic.Bexpr.to_truth_table ~n:4 e in
  List.iteri
    (fun _ out -> Helpers.check_tt_eq "xag evaluates the expression" tt out)
    (Xag.to_truth_tables g)

let test_of_esops () =
  let f = Funcgen.majority 5 in
  let g = Xag.of_esops 5 [ Logic.Esop_opt.minimize f ] in
  Helpers.check_tt_eq "xag of esop" f (List.hd (Xag.to_truth_tables g))

let test_ripple_adder () =
  for n = 1 to 4 do
    let g = Xag.ripple_adder n in
    for a = 0 to (1 lsl n) - 1 do
      for b = 0 to (1 lsl n) - 1 do
        let z = a lor (b lsl n) in
        Alcotest.(check int) "ripple adder" (a + b) (Xag.eval g z)
      done
    done;
    (* structural adder is small: ~5 nodes per bit *)
    Alcotest.(check bool) "compact" true (Xag.num_nodes g <= (5 * n) + 1)
  done

let test_cone () =
  let g = Xag.ripple_adder 3 in
  let outs = Xag.outputs g in
  (* cone of the LSB sum is much smaller than the full network *)
  let c0 = Xag.cone g [ List.hd outs ] in
  let call = Xag.cone g outs in
  Alcotest.(check bool) "lsb cone smaller" true (List.length c0 < List.length call);
  Alcotest.(check int) "full cone covers all nodes" (Xag.num_nodes g) (List.length call)

(* ---- rewriting ---- *)

let prop_rewrite_bexpr =
  Helpers.prop "rewrite preserves Bexpr semantics and never grows" ~count:60
    (Helpers.bexpr_gen ~vars:5 ())
    (fun e ->
      let g = Xag.of_bexpr 5 e in
      let g' = Xag.rewrite g in
      let tt = Logic.Bexpr.to_truth_table ~n:5 e in
      Truth_table.equal tt (List.hd (Xag.to_truth_tables g'))
      && Xag.num_nodes g' <= Xag.num_nodes g)

let prop_of_truth_table =
  Helpers.prop "of_truth_table tabulates back, before and after rewrite" ~count:40
    (Helpers.tt_gen 5)
    (fun f ->
      let g = Xag.of_truth_table f in
      Truth_table.equal f (List.hd (Xag.to_truth_tables g))
      && Truth_table.equal f (List.hd (Xag.to_truth_tables (Xag.rewrite g))))

let test_rewrite_never_grows_on_shared_trees () =
  (* expressions whose flattened XOR/AND trees used to duplicate a
     shared subtree, one node more than the graph they came from *)
  List.iter
    (fun seed ->
      let e = Logic.Bexpr.random (Helpers.rng seed) ~vars:5 ~depth:4 in
      let g = Xag.of_bexpr 5 e in
      let g' = Xag.rewrite g in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d -> %d nodes" seed (Xag.num_nodes g) (Xag.num_nodes g'))
        true
        (Xag.num_nodes g' <= Xag.num_nodes g);
      Helpers.check_tt_eq "same function"
        (Logic.Bexpr.to_truth_table ~n:5 e)
        (List.hd (Xag.to_truth_tables g')))
    [ 201; 210; 413 ]

let test_rewrite_cleanups () =
  (* duplicate XOR operands cancel; contradictory AND trees fold *)
  let g = Xag.create 3 in
  let a = Xag.input g 0 and b = Xag.input g 1 and c = Xag.input g 2 in
  let chain = Xag.xor g (Xag.xor g a b) (Xag.xor g b c) in
  Xag.add_output g chain;
  let g' = Xag.rewrite g in
  (* a ⊕ b ⊕ b ⊕ c = a ⊕ c: one surviving XOR node *)
  Alcotest.(check int) "xor chain cancelled" 1 (Xag.num_nodes g');
  let h = Xag.create 2 in
  let x = Xag.input h 0 and y = Xag.input h 1 in
  let t1 = Xag.and_ h x y in
  let t2 = Xag.and_ h t1 (Xag.complement (Xag.and_ h x y)) in
  Xag.add_output h t2;
  (* the AND tree contains both t and ¬t at construction already *)
  Alcotest.(check int) "contradiction folds" Xag.const_false t2;
  ignore (Xag.rewrite h)

(* ---- structural keys ---- *)

let test_structural_key () =
  let g1 = Rev.Arith.xag_less_than_const 8 ~k:100 in
  let g2 = Rev.Arith.xag_less_than_const 8 ~k:100 in
  let g3 = Rev.Arith.xag_less_than_const 8 ~k:101 in
  Alcotest.(check string) "same construction, same key" (Xag.structural_key g1)
    (Xag.structural_key g2);
  Alcotest.(check bool) "different constant, different key" true
    (Xag.structural_key g1 <> Xag.structural_key g3)

(* ---- native arithmetic builders ---- *)

let test_xag_subtractor () =
  for n = 1 to 4 do
    let g = Rev.Arith.xag_subtractor n in
    for a = 0 to (1 lsl n) - 1 do
      for b = 0 to (1 lsl n) - 1 do
        let expect =
          ((a - b) land Logic.Bitops.mask n) lor (if b > a then 1 lsl n else 0)
        in
        Alcotest.(check int) "a - b with borrow" expect
          (Xag.eval g (a lor (b lsl n)))
      done
    done
  done

let test_xag_less_than () =
  for n = 1 to 4 do
    let g = Rev.Arith.xag_less_than n in
    for a = 0 to (1 lsl n) - 1 do
      for b = 0 to (1 lsl n) - 1 do
        Alcotest.(check int) "a < b" (if a < b then 1 else 0)
          (Xag.eval g (a lor (b lsl n)))
      done
    done
  done

let test_xag_less_than_const () =
  List.iter
    (fun k ->
      let g = Rev.Arith.xag_less_than_const 8 ~k in
      (* two nodes per bit at most, constants folded *)
      Alcotest.(check bool) "compact" true (Xag.num_nodes g <= 16);
      for x = 0 to 255 do
        Alcotest.(check int)
          (Printf.sprintf "x<%d at %d" k x)
          (if x < k then 1 else 0)
          (Xag.eval g x)
      done)
    [ 0; 1; 100; 128; 255; 256 ]

let test_xag_equals_const () =
  List.iter
    (fun k ->
      let g = Rev.Arith.xag_equals_const 6 ~k in
      for x = 0 to 63 do
        Alcotest.(check int) "x = k" (if x = k then 1 else 0) (Xag.eval g x)
      done)
    [ 0; 17; 63 ]

let test_xag_add_equals () =
  let n = 2 in
  let g = Rev.Arith.xag_add_equals n in
  for a = 0 to 3 do
    for b = 0 to 3 do
      for c = 0 to 3 do
        let x = a lor (b lsl n) lor (c lsl (2 * n)) in
        Alcotest.(check int) "a+b=c" (if a + b = c then 1 else 0) (Xag.eval g x)
      done
    done
  done

let test_xag_multiplier () =
  for n = 1 to 3 do
    let g = Rev.Arith.xag_multiplier n in
    for a = 0 to (1 lsl n) - 1 do
      for b = 0 to (1 lsl n) - 1 do
        Alcotest.(check int) "a * b" (a * b) (Xag.eval g (a lor (b lsl n)))
      done
    done
  done

(* ---- hierarchical synthesis ---- *)

let test_bennett_adder () =
  let g = Xag.ripple_adder 3 in
  let c, layout = Hier_synth.bennett g in
  Alcotest.(check bool) "Eq. (4) contract" true
    (Hier_synth.check (c, layout) (Xag.to_truth_tables g));
  Alcotest.(check int) "ancillae = nodes" (Xag.num_nodes g) layout.Hier_synth.ancillae

let test_batched_tradeoff () =
  let g = Xag.ripple_adder 4 in
  let fs = Xag.to_truth_tables g in
  let _, lay_all = Hier_synth.bennett g in
  let prev_gates = ref 0 in
  List.iter
    (fun batch ->
      let c, lay = Hier_synth.output_batched ~batch g in
      Alcotest.(check bool) (Printf.sprintf "batch %d correct" batch) true
        (Hier_synth.check (c, lay) fs);
      Alcotest.(check bool) "fewer or equal ancillae than keep-all" true
        (lay.Hier_synth.ancillae <= lay_all.Hier_synth.ancillae);
      (* smaller batches cost at least as many gates *)
      if !prev_gates > 0 then
        Alcotest.(check bool) "monotone gate cost" true
          (Rcircuit.num_gates c >= !prev_gates);
      prev_gates := Rcircuit.num_gates c)
    [ 5; 2; 1 ]

let test_synth_tables_front_end () =
  let fs = [ Funcgen.majority 3; Funcgen.parity 3 ] in
  let c, lay = Hier_synth.synth_tables fs in
  Alcotest.(check bool) "table front end" true (Hier_synth.check (c, lay) fs)

let prop_hier_random =
  Helpers.prop "hierarchical synthesis realizes random functions" ~count:40
    (Helpers.tt_gen 4)
    (fun f ->
      let c, lay = Hier_synth.synth_tables [ f ] in
      Hier_synth.check (c, lay) [ f ])

let prop_hier_batched_random =
  Helpers.prop "batched hierarchical synthesis is correct" ~count:30
    QCheck2.Gen.(pair (Helpers.tt_gen 4) (Helpers.tt_gen 4))
    (fun (f, g) ->
      let c, lay = Hier_synth.synth_tables ~batch:1 [ f; g ] in
      Hier_synth.check (c, lay) [ f; g ])

(* ---- pebbling ---- *)

let test_bennett_full_fanout () =
  (* fanout = segments: one forward sweep keeping everything (peak = s
     pebbles), then the s-1 intermediate segments are uncomputed *)
  let c = Pebble.strategy_cost ~segments:8 ~fanout:8 in
  Alcotest.(check int) "pebbles" 8 c.Pebble.pebbles;
  Alcotest.(check int) "moves" 15 c.Pebble.moves

let test_bennett_binary () =
  (* fanout 2 on a chain of 2^k: pebbles ~ k+1, moves = 3^k *)
  let c = Pebble.strategy_cost ~segments:16 ~fanout:2 in
  Alcotest.(check bool) "few pebbles" true (c.Pebble.pebbles <= 5);
  Alcotest.(check int) "3^4 moves" 81 c.Pebble.moves

let test_schedule_validity () =
  List.iter
    (fun (segments, fanout) ->
      (* simulate raises on invalid schedules *)
      ignore (Pebble.simulate ~segments (Pebble.bennett ~segments ~fanout)))
    [ (1, 2); (2, 2); (7, 2); (13, 3); (16, 4); (33, 5); (40, 2) ]

let test_invalid_schedule_rejected () =
  (match Pebble.simulate ~segments:3 [ Pebble.Compute 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dependency violation accepted");
  (match Pebble.simulate ~segments:2 [ Pebble.Compute 0; Pebble.Compute 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double compute accepted");
  match Pebble.simulate ~segments:2 [ Pebble.Uncompute 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "uncompute of clean segment accepted"

let test_tradeoff_monotone () =
  (* larger fanout: more pebbles, fewer moves (the E6 shape) *)
  let costs =
    List.map (fun f -> Pebble.strategy_cost ~segments:32 ~fanout:f) [ 2; 4; 8; 16; 32 ]
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "pebbles nondecreasing" true (a.Pebble.pebbles <= b.Pebble.pebbles);
        Alcotest.(check bool) "moves nonincreasing" true (a.Pebble.moves >= b.Pebble.moves);
        check rest
    | _ -> ()
  in
  check costs

(* ---- DAG pebbling ---- *)

let check_dag ~deps ~outputs ~budget =
  match Pebble.schedule_dag ~budget ~deps ~outputs with
  | exception Pebble.Infeasible _ -> None
  | _, steps ->
      let cost = Pebble.simulate_dag ~deps ~outputs steps in
      Alcotest.(check bool)
        (Printf.sprintf "peak %d within budget %d" cost.Pebble.pebbles budget)
        true
        (cost.Pebble.pebbles <= budget);
      Some cost

let test_dag_chain () =
  let deps = [| []; [ 0 ]; [ 1 ]; [ 2 ] |] in
  let outputs = [ Some 3 ] in
  (* generous budget: forward sweep *)
  (match check_dag ~deps ~outputs ~budget:4 with
  (* 4 computes + 4 uncomputes: every ancilla is returned clean *)
  | Some c -> Alcotest.(check int) "cheap at full budget" 8 c.Pebble.moves
  | None -> Alcotest.fail "budget 4 must be feasible");
  (* tight budget triggers the recursive chain strategy *)
  (match check_dag ~deps ~outputs ~budget:3 with
  | Some _ -> ()
  | None -> Alcotest.fail "budget 3 must be feasible");
  (* the reversible pebble game needs p pebbles for a 2^p - 1 chain *)
  match check_dag ~deps ~outputs ~budget:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "budget 2 on a 4-chain must be infeasible"

let test_dag_diamond () =
  let deps = [| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |] in
  let outputs = [ Some 3 ] in
  (match check_dag ~deps ~outputs ~budget:4 with
  | Some _ -> ()
  | None -> Alcotest.fail "diamond at budget 4");
  match check_dag ~deps ~outputs ~budget:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "diamond needs its full 4-node cone"

let test_dag_multi_output () =
  let deps = [| []; [ 0 ]; [ 0 ] |] in
  let outputs = [ Some 1; Some 2 ] in
  match check_dag ~deps ~outputs ~budget:2 with
  | Some c ->
      (* node 0 is uncomputed once no later output needs it *)
      Alcotest.(check bool) "eager cleanup pays moves" true (c.Pebble.moves >= 4)
  | None -> Alcotest.fail "budget 2 covers each 2-node cone"

let test_dag_const_outputs () =
  let _, steps = Pebble.schedule_dag ~budget:0 ~deps:[||] ~outputs:[ None; None ] in
  let c = Pebble.simulate_dag ~deps:[||] ~outputs:[ None; None ] steps in
  Alcotest.(check int) "no pebbles for constant outputs" 0 c.Pebble.pebbles

let () =
  Alcotest.run "xag"
    [ ( "xag",
        [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "structural hashing" `Quick test_structural_hashing;
          Alcotest.test_case "of_bexpr" `Quick test_of_bexpr_eval;
          Alcotest.test_case "of_esops" `Quick test_of_esops;
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder;
          Alcotest.test_case "cones" `Quick test_cone;
          prop_rewrite_bexpr;
          prop_of_truth_table;
          Alcotest.test_case "rewrite cleanups" `Quick test_rewrite_cleanups;
          Alcotest.test_case "rewrite never grows on shared trees" `Quick
            test_rewrite_never_grows_on_shared_trees;
          Alcotest.test_case "structural key" `Quick test_structural_key ] );
      ( "arith_xag",
        [ Alcotest.test_case "subtractor" `Quick test_xag_subtractor;
          Alcotest.test_case "less-than" `Quick test_xag_less_than;
          Alcotest.test_case "less-than-const" `Quick test_xag_less_than_const;
          Alcotest.test_case "equals-const" `Quick test_xag_equals_const;
          Alcotest.test_case "add-equals" `Quick test_xag_add_equals;
          Alcotest.test_case "multiplier" `Quick test_xag_multiplier ] );
      ( "hier_synth",
        [ Alcotest.test_case "bennett adder" `Quick test_bennett_adder;
          Alcotest.test_case "batched trade-off" `Quick test_batched_tradeoff;
          Alcotest.test_case "table front end" `Quick test_synth_tables_front_end;
          prop_hier_random;
          prop_hier_batched_random ] );
      ( "pebble",
        [ Alcotest.test_case "full fanout" `Quick test_bennett_full_fanout;
          Alcotest.test_case "binary recursion" `Quick test_bennett_binary;
          Alcotest.test_case "schedule validity" `Quick test_schedule_validity;
          Alcotest.test_case "invalid schedules rejected" `Quick test_invalid_schedule_rejected;
          Alcotest.test_case "trade-off monotone" `Quick test_tradeoff_monotone ] );
      ( "pebble_dag",
        [ Alcotest.test_case "chain budgets" `Quick test_dag_chain;
          Alcotest.test_case "diamond" `Quick test_dag_diamond;
          Alcotest.test_case "multi-output cleanup" `Quick test_dag_multi_output;
          Alcotest.test_case "constant outputs" `Quick test_dag_const_outputs ] ) ]
