(* Regenerate every paper artifact (E1-E16; see DESIGN.md).
   Usage: experiments [e1|e2|...|e16|all] *)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> print_string (Core.Experiments.all ())
  | [ _; name ] -> (
      match List.assoc_opt (String.lowercase_ascii name) Core.Experiments.table with
      | Some f -> print_string (f ())
      | None ->
          Printf.eprintf "unknown experiment %s (e1..e16 or all)\n" name;
          exit 2)
  | _ ->
      prerr_endline "usage: experiments [e1..e16|all]";
      exit 2
