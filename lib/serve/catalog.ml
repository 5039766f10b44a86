(* Dataset catalog: generate a scenario's dataset once, share the loaded
   instance across requests, and version each entry so downstream caches
   (whose keys embed the version) invalidate on refresh.

   Mutex-protected — the scheduler hands requests to pool domains, and
   registrations may race with lookups. *)

open Nested

type key = { name : string; scale : int; seed : int }

type entry = {
  key : key;
  version : int;
  scenario : Scenarios.Scenario.t;
  instance : Scenarios.Scenario.instance;
  tables : (string * int) list;
  rows : int;
}

type t = {
  mutex : Mutex.t;
  entries : (key, entry) Hashtbl.t;
  mutable order : key list;  (* registration order, newest last *)
}

let create () =
  { mutex = Mutex.create (); entries = Hashtbl.create 16; order = [] }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let registers = Obs.Metrics.counter "serve.catalog.registers"
let reuses = Obs.Metrics.counter "serve.catalog.reuses"
let refreshes = Obs.Metrics.counter "serve.catalog.refreshes"
let datasets = Obs.Metrics.gauge "serve.catalog.datasets"

let table_stats db =
  let tables =
    List.map
      (fun (name, rel) -> (name, Relation.cardinal rel))
      (Relation.Db.tables db)
  in
  (tables, List.fold_left (fun acc (_, n) -> acc + n) 0 tables)

let build (s : Scenarios.Scenario.t) key version : entry =
  let instance =
    if key.seed = 0 then s.Scenarios.Scenario.make ~scale:key.scale ()
    else s.Scenarios.Scenario.make ~scale:key.scale ~seed:key.seed ()
  in
  let tables, rows =
    table_stats instance.Scenarios.Scenario.question.Whynot.Question.db
  in
  { key; version; scenario = s; instance; tables; rows }

let register t ?(seed = 0) ?(refresh = false) ~name ~scale () =
  match Scenarios.Registry.find name with
  | None -> Error (Fmt.str "unknown scenario %S (try the `list` request)" name)
  | Some s ->
    (* canonical name so "d1" and "D1" share an entry *)
    let key = { name = s.Scenarios.Scenario.name; scale; seed } in
    locked t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some e when not refresh ->
          Obs.Metrics.Counter.incr reuses;
          Ok (e, false)
        | prior ->
          let version =
            match prior with Some e -> e.version + 1 | None -> 1
          in
          let e = build s key version in
          Hashtbl.replace t.entries key e;
          if prior = None then t.order <- t.order @ [ key ]
          else Obs.Metrics.Counter.incr refreshes;
          Obs.Metrics.Counter.incr registers;
          Obs.Metrics.Gauge.set datasets
            (float_of_int (Hashtbl.length t.entries));
          Ok (e, true))

let canonical_key ?(seed = 0) ~name ~scale () =
  match Scenarios.Registry.find name with
  | Some s -> Some { name = s.Scenarios.Scenario.name; scale; seed }
  | None -> None

let find t ?seed ~name ~scale () =
  match canonical_key ?seed ~name ~scale () with
  | None -> None
  | Some key -> locked t (fun () -> Hashtbl.find_opt t.entries key)

let evict t ?seed ~name ~scale () =
  match canonical_key ?seed ~name ~scale () with
  | None -> false
  | Some key ->
    locked t (fun () ->
        let present = Hashtbl.mem t.entries key in
        if present then begin
          Hashtbl.remove t.entries key;
          t.order <- List.filter (fun k -> k <> key) t.order;
          Obs.Metrics.Gauge.set datasets
            (float_of_int (Hashtbl.length t.entries))
        end;
        present)

let schema_env (e : entry) =
  Frontend.Compile.env_of_db
    e.instance.Scenarios.Scenario.question.Whynot.Question.db

let entries t =
  locked t (fun () ->
      List.filter_map (fun k -> Hashtbl.find_opt t.entries k) t.order)

let size t = locked t (fun () -> Hashtbl.length t.entries)
