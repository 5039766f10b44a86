(* Process-global fault-injection registry — the chaos harness shared by
   the engine, the why-not pipeline, and the serve layer.

   The armed-site count is mirrored in an atomic so the unarmed fast
   path of [fire]/[transform] is a single load — hook points sit on
   every engine run and on the server's hot request path. *)

type action =
  | Fail of { times : int; exn_ : exn }
  | Flaky of { period : int; exn_ : exn }
  | Delay_ms of float
  | Garble of (string -> string)

let fail_once e = Fail { times = 1; exn_ = e }

type site = {
  mutable action : action option;
  mutable fired : int;  (* times the action actually triggered *)
  mutable seen : int;  (* times the armed site was consulted (Flaky) *)
}

let mutex = Mutex.create ()
let table : (string, site) Hashtbl.t = Hashtbl.create 8
let armed = Atomic.make 0

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let site_of name =
  match Hashtbl.find_opt table name with
  | Some s -> s
  | None ->
    let s = { action = None; fired = 0; seen = 0 } in
    Hashtbl.replace table name s;
    s

let recount () =
  Atomic.set armed
    (Hashtbl.fold
       (fun _ s n -> if s.action <> None then n + 1 else n)
       table 0)

(* Declared hook points and the set of sites a test run has ever armed.
   Both survive [reset]: the registry is the ground truth the chaos-
   coverage lint enumerates, and [armed_log] is what it compares
   against, so arming inside a test that later resets still counts. *)
let registry : (string, unit) Hashtbl.t = Hashtbl.create 16
let armed_log : (string, unit) Hashtbl.t = Hashtbl.create 16

let register_site name =
  locked (fun () -> Hashtbl.replace registry name ());
  name

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let registered_sites () = locked (fun () -> sorted_keys registry)
let ever_armed () = locked (fun () -> sorted_keys armed_log)

let arm name action =
  locked (fun () ->
      let s = site_of name in
      s.action <- Some action;
      s.seen <- 0;
      Hashtbl.replace armed_log name ();
      recount ())

let disarm name =
  locked (fun () ->
      (match Hashtbl.find_opt table name with
      | Some s -> s.action <- None
      | None -> ());
      recount ())

let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      recount ())

let fired name =
  locked (fun () ->
      match Hashtbl.find_opt table name with Some s -> s.fired | None -> 0)

let record name s =
  s.fired <- s.fired + 1;
  Metrics.Counter.incr (Metrics.counter ("fault." ^ name))

(* Decide under the lock, act (sleep/raise) outside it. *)
let trigger name =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | None | Some { action = None; _ } -> `Nothing
      | Some ({ action = Some a; _ } as s) -> (
        match a with
        | Fail { times = 0; _ } -> `Nothing
        | Fail { times; exn_ } ->
          if times > 0 then begin
            s.action <-
              (if times = 1 then None else Some (Fail { times = times - 1; exn_ }));
            recount ()
          end;
          record name s;
          `Raise exn_
        | Flaky { period; exn_ } ->
          (* Deterministic flakiness: every [period]-th consultation of
             the armed site raises — no Random in the decision path, so a
             chaos run is exactly reproducible.  A retried task consults
             the site again (advancing [seen] by one), lands off the
             period boundary, and succeeds — the transient-fault shape. *)
          s.seen <- s.seen + 1;
          if period > 0 && s.seen mod period = 0 then begin
            record name s;
            `Raise exn_
          end
          else `Nothing
        | Delay_ms d ->
          record name s;
          `Sleep d
        | Garble g ->
          record name s;
          `Garble g))

let act name = function
  | `Nothing -> ()
  | `Sleep d -> Unix.sleepf (d /. 1000.)
  | `Raise e -> raise e
  | `Garble _ ->
    (* a Garble armed on a fire-only site is a harness mistake; ignore *)
    ignore name

let fire name = if Atomic.get armed > 0 then act name (trigger name)

let transform name s =
  if Atomic.get armed = 0 then s
  else
    match trigger name with
    | `Garble g -> g s
    | other ->
      act name other;
      s
