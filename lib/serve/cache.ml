(* LRU cache: hash table for O(1) lookup + intrusive doubly-linked list
   for O(1) recency updates and eviction.  The list head is the
   most-recently-used entry, the tail the eviction candidate.

   All operations take the mutex — entries are shared between the request
   thread and pool domains. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards the head (more recent) *)
  mutable next : 'v node option;  (* towards the tail (less recent) *)
}

type 'v t = {
  capacity : int;
  mutex : Mutex.t;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* registry handles, resolved once so [find]/[add] never take the
     registry's mutex while holding this cache's *)
  m_hits : Obs.Metrics.Counter.t;
  m_misses : Obs.Metrics.Counter.t;
  m_evictions : Obs.Metrics.Counter.t;
  m_size : Obs.Metrics.Gauge.t;
}

let create ~name ~capacity =
  let metric suffix = "serve.cache." ^ name ^ "." ^ suffix in
  {
    capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits = Obs.Metrics.counter (metric "hits");
    m_misses = Obs.Metrics.counter (metric "misses");
    m_evictions = Obs.Metrics.counter (metric "evictions");
    m_size = Obs.Metrics.gauge (metric "size");
  }

let capacity t = t.capacity

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = locked t (fun () -> Hashtbl.length t.table)

(* -- list surgery (mutex held) -- *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
    unlink t node;
    push_front t node

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.Counter.incr t.m_evictions

(* -- public operations -- *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node when t.capacity > 0 ->
        touch t node;
        t.hits <- t.hits + 1;
        Obs.Metrics.Counter.incr t.m_hits;
        Some node.value
      | _ ->
        t.misses <- t.misses + 1;
        Obs.Metrics.Counter.incr t.m_misses;
        None)

let add t key value =
  if t.capacity > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some node ->
          node.value <- value;
          touch t node
        | None ->
          let node = { key; value; prev = None; next = None } in
          Hashtbl.replace t.table key node;
          push_front t node;
          if Hashtbl.length t.table > t.capacity then evict_tail t);
        Obs.Metrics.Gauge.set t.m_size
          (float_of_int (Hashtbl.length t.table)))

let invalidate t pred =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun key node acc -> if pred key then node :: acc else acc)
          t.table []
      in
      List.iter
        (fun node ->
          unlink t node;
          Hashtbl.remove t.table node.key)
        doomed;
      Obs.Metrics.Gauge.set t.m_size
        (float_of_int (Hashtbl.length t.table));
      List.length doomed)

let clear t = invalidate t (fun _ -> true)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.table;
        capacity = t.capacity;
      })
