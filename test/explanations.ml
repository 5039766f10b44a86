(* Print the golden explanation corpus ([Golden.corpus]) to stdout. *)

let () = print_string (Golden.corpus ())
