(* Keyed latch table for single-flight coalescing.

   One mutex guards the table and every entry's state; followers wait on
   the entry's condition variable (associated with the table mutex).
   The leader runs its computation OUTSIDE the lock — only bookkeeping
   is done under it, so followers of other keys are never serialized
   behind a slow computation. *)

type 'v outcome = Pending | Resolved of ('v, exn) result

type 'v entry = {
  cond : Condition.t;
  leader_trace : string option;
      (* the leader's ambient trace at entry creation — followers report
         it so a coalesced request's log line names whose execution it
         rode *)
  mutable outcome : 'v outcome;
}

type 'v t = {
  mutex : Mutex.t;
  table : (string, 'v entry) Hashtbl.t;
  mutable leaders_n : int;
  mutable coalesced_n : int;
  mutable failures_n : int;
  m_leaders : Obs.Metrics.Counter.t;
  m_coalesced : Obs.Metrics.Counter.t;
  m_failures : Obs.Metrics.Counter.t;
}

type role = Leader | Follower of { leader_trace : string option }

let create ?(name = "default") () =
  let metric suffix =
    Obs.Metrics.counter ("serve.inflight." ^ name ^ "." ^ suffix)
  in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 32;
    leaders_n = 0;
    coalesced_n = 0;
    failures_n = 0;
    m_leaders = metric "leaders";
    m_coalesced = metric "coalesced";
    m_failures = metric "failures";
  }

let run t key (f : unit -> 'v) : role * ('v, exn) result =
  (* read the ambient trace before taking the table mutex — mutexes stay
     un-nested *)
  let my_trace = Obs.Trace_context.current () in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    (* follower: wait for the leader's broadcast.  The entry may already
       be out of the table by the time we wake — we hold our own
       reference, so the outcome is still readable. *)
    t.coalesced_n <- t.coalesced_n + 1;
    let rec awaited () =
      match entry.outcome with
      | Resolved r -> r
      | Pending ->
        Condition.wait entry.cond t.mutex;
        awaited ()
    in
    let r = awaited () in
    Mutex.unlock t.mutex;
    Obs.Metrics.Counter.incr t.m_coalesced;
    (Follower { leader_trace = entry.leader_trace }, r)
  | None ->
    let entry =
      { cond = Condition.create (); leader_trace = my_trace; outcome = Pending }
    in
    Hashtbl.replace t.table key entry;
    t.leaders_n <- t.leaders_n + 1;
    Mutex.unlock t.mutex;
    Obs.Metrics.Counter.incr t.m_leaders;
    let r = match f () with v -> Ok v | exception e -> Error e in
    Mutex.lock t.mutex;
    entry.outcome <- Resolved r;
    (match r with
    | Error _ ->
      t.failures_n <- t.failures_n + 1;
      Obs.Metrics.Counter.incr t.m_failures
    | Ok _ -> ());
    (* Remove before broadcasting: arrivals from here on lead afresh. *)
    Hashtbl.remove t.table key;
    Condition.broadcast entry.cond;
    Mutex.unlock t.mutex;
    (Leader, r)

let active t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

type stats = { leaders : int; coalesced : int; failures : int }

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      leaders = t.leaders_n;
      coalesced = t.coalesced_n;
      failures = t.failures_n;
    }
  in
  Mutex.unlock t.mutex;
  s
