(* Cooperative cancellation: an atomic flag plus an optional absolute
   deadline on the Obs.Clock timeline.  Tokens are shared between the
   request thread, the scheduler, and pool domains, hence the atomic. *)

type t = {
  flag : bool Atomic.t option;  (* None = the never-cancellable token *)
  deadline_ns : int option;
}

exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Cancelled where -> Some ("Cancel.Cancelled at " ^ where)
    | _ -> None)

let none = { flag = None; deadline_ns = None }

let create () = { flag = Some (Atomic.make false); deadline_ns = None }

let with_deadline_ms ?from_ns budget =
  let from_ns = match from_ns with Some t -> t | None -> Obs.Clock.now_ns () in
  {
    flag = Some (Atomic.make false);
    deadline_ns = Some (from_ns + int_of_float (budget *. 1e6));
  }

let cancel t = match t.flag with Some f -> Atomic.set f true | None -> ()

let cancelled t =
  (match t.flag with Some f -> Atomic.get f | None -> false)
  ||
  match t.deadline_ns with
  | Some d -> Obs.Clock.now_ns () > d
  | None -> false

let check t ~where = if cancelled t then raise (Cancelled where)
