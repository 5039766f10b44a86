(* Stage-level recovery: the checkpoint codec (round-trip + corruption
   corpus), replay-from-checkpoint semantics (lineage truncated at the
   barrier), disk spill under a memory watermark, and chaos-hardened
   byte-identity for every shuffle/checkpoint fault site.  Ends with
   the chaos-coverage lint: every registered fault site must have been
   armed by some test in this binary. *)

open Nested
module C = Engine.Columnar
module Ck = Engine.Checkpoint
module D = Engine.Dataset

let transient msg = Engine.Fault.Transient (Failure msg)

let fast_retries n =
  Engine.Fault.retries ~base_backoff_ms:0.0 ~max_backoff_ms:0.0 n

let counter_value name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

(* Run [f] with an isolated checkpoint config rooted in a fresh temp
   directory, sweeping the scratch afterwards so tests never leak. *)
let with_ckpt ?(shuffles = true) ?max_memory_bytes f =
  let base = Filename.temp_file "whynot-recover" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  let cfg =
    {
      Ck.dir = Some base;
      checkpoint_shuffles = shuffles;
      max_memory_bytes;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Ck.sweep ();
      try Unix.rmdir base with Unix.Unix_error _ -> ())
    (fun () -> Ck.with_config (Some cfg) f)

(* --- codec: round-trip --------------------------------------------------- *)

(* Nested values biased toward the codec's hard cases: deep nesting,
   empty bags, Null-heavy columns, duplicate strings (dictionary
   re-interning). *)
let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           frequency
             [
               (2, return Value.Null);
               (1, map (fun b -> Value.Bool b) bool);
               (2, map (fun i -> Value.Int i) small_signed_int);
               (1, map (fun f -> Value.Float f) (float_bound_inclusive 100.));
               ( 2,
                 map
                   (fun s -> Value.String s)
                   (string_size ~gen:(char_range 'a' 'c') (return 2)) );
             ]
         else
           frequency
             [
               (2, map (fun i -> Value.Int i) small_signed_int);
               (1, return Value.Null);
               ( 2,
                 map
                   (fun vs ->
                     Value.Tuple (List.mapi (fun i v -> (Fmt.str "f%d" i, v)) vs))
                   (list_size (int_range 1 3) (self (n / 2))) );
               ( 2,
                 map
                   (fun vs -> Value.bag_of_list vs)
                   (list_size (int_range 0 4) (self (n / 2))) );
             ])

let arb_rows =
  QCheck.make
    ~print:(fun vs -> Fmt.str "%a" (Fmt.Dump.list Value.pp) vs)
    QCheck.Gen.(list_size (int_range 0 12) value_gen)

let rows_equal a b =
  List.length a = List.length b && List.for_all2 Value.equal a b

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips any batch" ~count:300
    arb_rows (fun rows ->
      let b = C.of_rows rows in
      rows_equal rows (C.to_rows (Ck.decode (Ck.encode b))))

let qcheck_frame_roundtrip =
  QCheck.Test.make ~name:"frame/unframe round-trips any payload" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun payload -> Ck.unframe (Ck.frame payload) = payload)

(* Garbage into [unframe] must raise [Corrupt] — never anything else,
   and never a giant allocation. *)
let qcheck_unframe_garbage =
  QCheck.Test.make ~name:"unframe rejects garbage with Corrupt" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      match Ck.unframe s with
      | _ -> s = Ck.unframe s (* vanishingly unlikely; accept fixpoints *)
      | exception Ck.Corrupt _ -> true
      | exception _ -> false)

let test_codec_special_shapes () =
  let check_batch name (b : C.t) =
    let back = Ck.decode (Ck.encode b) in
    Alcotest.(check bool)
      (name ^ " round-trips") true
      (rows_equal (C.to_rows b) (C.to_rows back))
  in
  check_batch "empty" C.empty;
  check_batch "all-null" { C.n = 5; row = C.CNull 5 };
  check_batch "const int" { C.n = 4; row = C.CConst (4, Value.Int 42) };
  check_batch "const string"
    { C.n = 3; row = C.CConst (3, Value.String "forest") };
  check_batch "const nested"
    {
      C.n = 2;
      row =
        C.CConst
          ( 2,
            Value.Tuple
              [ ("b", Value.bag_of_list [ Value.Int 1; Value.Int 1 ]) ] );
    };
  check_batch "dict strings"
    (C.of_rows
       [
         Value.String "aa";
         Value.String "bb";
         Value.String "aa";
         Value.Null;
         Value.String "bb";
       ])

(* --- codec: corruption corpus -------------------------------------------- *)

let corpus_batch () =
  C.of_rows
    (List.init 16 (fun i ->
         Value.Tuple
           [
             ("id", Value.Int i);
             ("name", Value.String (if i mod 2 = 0 then "even" else "odd"));
             ( "tags",
               Value.bag_of_list
                 (List.init (i mod 3) (fun j -> Value.Int (i * 10 + j))) );
           ]))

let test_truncation_rejected () =
  let framed = Ck.frame (Ck.encode (corpus_batch ())) in
  for len = 0 to String.length framed - 1 do
    match Ck.unframe (String.sub framed 0 len) with
    | _ -> Alcotest.fail (Fmt.str "truncation to %d bytes accepted" len)
    | exception Ck.Corrupt _ -> ()
    | exception e ->
      Alcotest.fail
        (Fmt.str "truncation to %d raised %s, not Corrupt" len
           (Printexc.to_string e))
  done

let test_bitflips_rejected () =
  let framed = Ck.frame (Ck.encode (corpus_batch ())) in
  (* every single-bit flip anywhere in the frame — header, length, CRC,
     or payload — must be caught by the magic/length/CRC checks *)
  for i = 0 to String.length framed - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string framed in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Ck.unframe (Bytes.to_string b) with
      | _ -> Alcotest.fail (Fmt.str "bit %d of byte %d accepted" bit i)
      | exception Ck.Corrupt _ -> ()
      | exception e ->
        Alcotest.fail
          (Fmt.str "bit %d of byte %d raised %s, not Corrupt" bit i
             (Printexc.to_string e))
    done
  done

(* [decode] is only reached behind the CRC in production, but it must
   still be hardened: a flipped payload byte may decode to a different
   (valid) batch or raise [Corrupt], never crash or over-allocate. *)
let test_payload_bitflips_never_crash () =
  let payload = Ck.encode (corpus_batch ()) in
  for i = 0 to String.length payload - 1 do
    let b = Bytes.of_string payload in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
    match Ck.decode (Bytes.to_string b) with
    | (_ : C.t) -> ()
    | exception Ck.Corrupt _ -> ()
    | exception e ->
      Alcotest.fail
        (Fmt.str "payload byte %d raised %s, not Corrupt" i
           (Printexc.to_string e))
  done

(* A CRC-valid frame whose payload is structurally malformed (bad bag
   offsets) must be rejected at decode time — not surface later as
   [Invalid_argument] deep in a columnar kernel.  [encode] writes the
   arrays verbatim, so building invalid [CBag]s directly produces
   exactly the payloads a direct [decode] caller (or a corrupted-but-
   CRC-colliding file) could present. *)
let test_malformed_bag_offsets_rejected () =
  let ints a = C.CInt (a, None) in
  let bag bn boff bmult belems =
    { C.n = bn; row = C.CBag { bn; boff; bmult; belems; bpresent = None } }
  in
  let cases =
    [
      ("offsets not starting at 0", bag 2 [| 1; 2; 3 |] [| 1; 1; 1 |]
         (ints [| 1; 2; 3 |]));
      ("decreasing offsets", bag 2 [| 0; 3; 1 |] [| 1; 1; 1 |]
         (ints [| 1; 2; 3 |]));
      ("offsets beyond stored elements", bag 2 [| 0; 2; 9 |] [| 1; 1; 1 |]
         (ints [| 1; 2; 3 |]));
      ("multiplicities shorter than offsets", bag 2 [| 0; 2; 3 |] [| 1 |]
         (ints [| 1; 2; 3 |]));
    ]
  in
  List.iter
    (fun (name, b) ->
      match Ck.decode (Ck.encode b) with
      | _ -> Alcotest.fail (Fmt.str "%s: accepted" name)
      | exception Ck.Corrupt _ -> ()
      | exception e ->
        Alcotest.fail
          (Fmt.str "%s: raised %s, not Corrupt" name (Printexc.to_string e)))
    cases

(* --- replay from checkpoint ---------------------------------------------- *)

let key_of = function
  | Value.Tuple fields -> (
    match List.assoc_opt "k" fields with Some v -> v | None -> Value.Null)
  | _ -> Value.Null

let shuffle_input () =
  D.distribute ~partitions:4
    (List.init 64 (fun i ->
         Value.Tuple [ ("k", Value.Int (i mod 7)); ("v", Value.Int i) ]))

let sorted_list d = List.sort Value.compare (D.to_list d)

(* Hash-partition by a per-row key, one [D.value_hash] per row. *)
let shuffle_on ?barrier key d =
  D.shuffle_hashed ?barrier ~partitions:4
    (fun b -> Array.map (fun row -> D.value_hash (key row)) (C.to_values b))
    d

(* A transient fault downstream of a checkpointed shuffle replays from
   the barrier: [from_checkpoint] moves, [from_source] does not. *)
let test_replay_from_checkpoint () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:true (fun () ->
      let shuffled, _ =
        shuffle_on ~barrier:"t-replay" key_of (shuffle_input ())
      in
      let expected =
        sorted_list (D.map_cpartitions ~label:"base" Fun.id shuffled)
      in
      let from_ckpt0 = counter_value "engine.recover.from_checkpoint" in
      let from_src0 = counter_value "engine.recover.from_source" in
      let replayed0 = counter_value "engine.recover.replayed_partitions" in
      let failed = ref false in
      let out =
        D.map_cpartitions ~retry:(fast_retries 3) ~label:"flaky"
          (fun b ->
            if not !failed then begin
              failed := true;
              raise (transient "chaos")
            end;
            b)
          shuffled
      in
      Alcotest.(check (list string))
        "replayed run is identical"
        (List.map Value.to_string expected)
        (List.map Value.to_string (sorted_list out));
      Alcotest.(check bool)
        "replay hit the checkpoint" true
        (counter_value "engine.recover.from_checkpoint" - from_ckpt0 >= 1);
      Alcotest.(check int)
        "nothing recomputed from source" 0
        (counter_value "engine.recover.from_source" - from_src0);
      Alcotest.(check bool)
        "replayed partitions counted" true
        (counter_value "engine.recover.replayed_partitions" - replayed0 >= 1))

(* The contrast case: no barrier, so the same fault replays from the
   source input instead. *)
let test_replay_from_source_without_barrier () =
  Obs.Faultinject.reset ();
  let shuffled, _ = shuffle_on key_of (shuffle_input ()) in
  let from_ckpt0 = counter_value "engine.recover.from_checkpoint" in
  let from_src0 = counter_value "engine.recover.from_source" in
  let failed = ref false in
  let out =
    D.map_cpartitions ~retry:(fast_retries 3) ~label:"flaky"
      (fun b ->
        if not !failed then begin
          failed := true;
          raise (transient "chaos")
        end;
        b)
      shuffled
  in
  Alcotest.(check int) "all rows survive" 64 (List.length (D.to_list out));
  Alcotest.(check int)
    "no checkpoint to replay from" 0
    (counter_value "engine.recover.from_checkpoint" - from_ckpt0);
  Alcotest.(check int)
    "source replay counted" 1
    (counter_value "engine.recover.from_source" - from_src0)

(* A torn read of the checkpoint file itself is a transient fault inside
   the task's retry scope: the re-attempt re-reads and succeeds. *)
let test_torn_shuffle_read_is_retryable () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:true (fun () ->
      let shuffled, _ =
        shuffle_on ~barrier:"t-torn" key_of (shuffle_input ())
      in
      (* lose a partition, then make its first re-read fault *)
      D.recover_partition shuffled 0;
      Obs.Faultinject.arm "engine.shuffle.read"
        (Obs.Faultinject.fail_once (transient "torn read"));
      let out =
        D.map_cpartitions ~retry:(fast_retries 3) ~label:"reader" Fun.id
          shuffled
      in
      Obs.Faultinject.reset ();
      Alcotest.(check int) "all rows survive the torn read" 64
        (List.length (D.to_list out)))

(* A garbled checkpoint file fails its CRC and falls back to the lineage
   recompute — wrong data can never re-enter the run. *)
let test_garbled_checkpoint_recomputes () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:true (fun () ->
      (* every write is garbled after the CRC is computed *)
      Obs.Faultinject.arm "engine.checkpoint.io"
        (Obs.Faultinject.Garble
           (fun s ->
             if String.length s <= 17 then s
             else begin
               let b = Bytes.of_string s in
               Bytes.set b 17 (Char.chr (Char.code (Bytes.get b 17) lxor 0xff));
               Bytes.to_string b
             end));
      let shuffled, _ =
        shuffle_on ~barrier:"t-crc" key_of (shuffle_input ())
      in
      let expected =
        sorted_list (D.map_cpartitions ~label:"base" Fun.id shuffled)
      in
      let corrupt0 = counter_value "engine.checkpoint.corrupt" in
      let from_src0 = counter_value "engine.recover.from_source" in
      let failed = ref false in
      let out =
        D.map_cpartitions ~retry:(fast_retries 3) ~label:"flaky"
          (fun b ->
            if not !failed then begin
              failed := true;
              raise (transient "chaos")
            end;
            b)
          shuffled
      in
      Obs.Faultinject.reset ();
      Alcotest.(check (list string))
        "recomputed run is identical"
        (List.map Value.to_string expected)
        (List.map Value.to_string (sorted_list out));
      Alcotest.(check bool)
        "CRC rejected the garbled file" true
        (counter_value "engine.checkpoint.corrupt" - corrupt0 >= 1);
      Alcotest.(check bool)
        "lineage recompute counted" true
        (counter_value "engine.recover.from_source" - from_src0 >= 1))

(* Losing several partitions of one barrier costs ONE upstream
   re-shuffle, not one per partition: the recompute closures share a
   memoized shuffle body.  Counted via the key function — the shuffle
   body calls it once per row, so k independent re-shuffles would show
   k * 64 calls. *)
let test_barrier_recompute_memoized () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:true (fun () ->
      (* garble every write so each lost partition must fall back *)
      Obs.Faultinject.arm "engine.checkpoint.io"
        (Obs.Faultinject.Garble
           (fun s ->
             if String.length s <= 17 then s
             else begin
               let b = Bytes.of_string s in
               Bytes.set b 17 (Char.chr (Char.code (Bytes.get b 17) lxor 0xff));
               Bytes.to_string b
             end));
      let calls = ref 0 in
      let key v =
        incr calls;
        key_of v
      in
      let shuffled, _ =
        shuffle_on ~barrier:"t-memo" key (shuffle_input ())
      in
      calls := 0;
      for i = 0 to 3 do
        D.recover_partition shuffled i
      done;
      Alcotest.(check int)
        "all rows recomputed" 64
        (List.length (D.to_list shuffled));
      Obs.Faultinject.reset ();
      Alcotest.(check int)
        "one upstream re-shuffle covered every lost partition" 64 !calls)

(* A failed checkpoint write degrades to a plain in-memory partition:
   the run loses its recovery shortcut, never its data. *)
let test_failed_checkpoint_write_degrades () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:true (fun () ->
      Obs.Faultinject.arm "engine.shuffle.write"
        (Obs.Faultinject.Fail { times = -1; exn_ = Failure "disk full" });
      let wf0 = counter_value "engine.checkpoint.write_failures" in
      let shuffled, _ =
        shuffle_on ~barrier:"t-wfail" key_of (shuffle_input ())
      in
      Obs.Faultinject.reset ();
      Alcotest.(check int) "all rows survive failed writes" 64
        (List.length (D.to_list shuffled));
      Alcotest.(check bool)
        "write failures counted" true
        (counter_value "engine.checkpoint.write_failures" - wf0 >= 4))

(* --- spill ---------------------------------------------------------------- *)

let test_spill_and_restore () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:false (fun () ->
      let d = shuffle_input () in
      let before = D.memory_bytes d in
      Alcotest.(check bool) "dataset starts resident" true (before > 0);
      let batches0 = counter_value "engine.spill.batches" in
      let restores0 = counter_value "engine.spill.restores" in
      let freed = D.spill_over ~watermark:0 d in
      Alcotest.(check int) "everything spilled" before freed;
      Alcotest.(check int) "spilled footprint is zero" 0 (D.memory_bytes d);
      Alcotest.(check int)
        "spill batches counted" 4
        (counter_value "engine.spill.batches" - batches0);
      (* access transparently re-maps the spilled partitions *)
      Alcotest.(check int) "all rows restored" 64 (List.length (D.to_list d));
      Alcotest.(check int)
        "restores counted" 4
        (counter_value "engine.spill.restores" - restores0);
      (* second spill of an already-checkpointed partition is a pure
         cache drop — no second write *)
      let writes0 = counter_value "engine.checkpoint.writes" in
      ignore (D.spill_over ~watermark:0 d);
      Alcotest.(check int)
        "re-spill drops caches without rewriting" 0
        (counter_value "engine.checkpoint.writes" - writes0))

let test_spill_under_watermark_is_noop () =
  with_ckpt ~shuffles:false (fun () ->
      let d = shuffle_input () in
      Alcotest.(check int) "no spill under the watermark" 0
        (D.spill_over ~watermark:max_int d))

(* A sweep arriving while an execution pins the run directory (the
   catalog-eviction-during-query shape) must not delete spilled
   sole-copy partitions: it defers to the last release. *)
let test_sweep_deferred_while_pinned () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:false (fun () ->
      Ck.with_retained (fun () ->
          let d = shuffle_input () in
          ignore (D.spill_over ~watermark:0 d);
          Ck.sweep ();
          (* concurrent eviction *)
          Alcotest.(check bool)
            "run dir survives the sweep while pinned" true
            (match Ck.run_dir () with
            | Some p -> Sys.file_exists p
            | None -> false);
          Alcotest.(check int)
            "spilled sole copies still restore" 64
            (List.length (D.to_list d)));
      Alcotest.(check bool)
        "deferred sweep ran on the last release" true
        (Ck.run_dir () = None))

(* A garbled spill write is caught by the write-time verification: the
   partition stays resident (degraded, never lost). *)
let test_garbled_spill_write_keeps_partition_resident () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:false (fun () ->
      Obs.Faultinject.arm "engine.checkpoint.io"
        (Obs.Faultinject.Garble
           (fun s ->
             if String.length s <= 17 then s
             else begin
               let b = Bytes.of_string s in
               Bytes.set b 17 (Char.chr (Char.code (Bytes.get b 17) lxor 0xff));
               Bytes.to_string b
             end));
      let d = shuffle_input () in
      let wf0 = counter_value "engine.checkpoint.write_failures" in
      let freed = D.spill_over ~watermark:0 d in
      Obs.Faultinject.reset ();
      Alcotest.(check int) "nothing spilled through garbled writes" 0 freed;
      Alcotest.(check bool)
        "partitions stayed resident" true
        (D.memory_bytes d > 0);
      Alcotest.(check bool)
        "write failures counted" true
        (counter_value "engine.checkpoint.write_failures" - wf0 >= 4);
      Alcotest.(check int) "data intact" 64 (List.length (D.to_list d)))

(* A spill file verified at write time but lost afterwards (external
   delete, on-disk corruption) is a hard failure: [Spill_lost], not a
   silent wrong answer and not an unrelated exception. *)
let test_deleted_spill_file_raises_spill_lost () =
  Obs.Faultinject.reset ();
  with_ckpt ~shuffles:false (fun () ->
      let d = shuffle_input () in
      ignore (D.spill_over ~watermark:0 d);
      (match Ck.run_dir () with
      | Some dir ->
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir)
      | None -> Alcotest.fail "spill created no run directory");
      match D.to_list d with
      | _ -> Alcotest.fail "reading a deleted sole-copy spill succeeded"
      | exception D.Spill_lost _ -> ()
      | exception e ->
        Alcotest.fail
          (Fmt.str "raised %s, not Spill_lost" (Printexc.to_string e)))

(* --- pipeline byte-identity ----------------------------------------------- *)

let result_fingerprint (r : Whynot.Pipeline.result) =
  Fmt.str "%a|%a" Whynot.Pipeline.pp_result r
    Fmt.(Dump.list (Dump.list int))
    (Whynot.Pipeline.explanation_sets r)

let scenario_insts n =
  List.filteri (fun i _ -> i < n)
    (List.map
       (fun (s : Scenarios.Scenario.t) ->
         (s.Scenarios.Scenario.name, s.Scenarios.Scenario.make ~scale:1 ()))
       Scenarios.Registry.all)

let explain ?retry (inst : Scenarios.Scenario.instance) =
  Whynot.Pipeline.explain
    ?retry
    ~alternatives:inst.Scenarios.Scenario.alternatives
    inst.Scenarios.Scenario.question

(* Checkpoint barriers alone must not change a single explanation. *)
let test_pipeline_identical_with_checkpoints () =
  let insts = scenario_insts 3 in
  let plain =
    Ck.with_config None (fun () ->
        List.map (fun (n, i) -> (n, result_fingerprint (explain i))) insts)
  in
  let ckpt =
    with_ckpt ~shuffles:true (fun () ->
        List.map (fun (n, i) -> (n, result_fingerprint (explain i))) insts)
  in
  List.iter2
    (fun (name, expected) (_, got) ->
      Alcotest.(check string)
        (Fmt.str "%s: checkpointed run byte-identical" name)
        expected got)
    plain ckpt

(* A starvation-level watermark spills every intermediate; explanations
   must still be byte-identical. *)
let test_pipeline_identical_under_spill () =
  let insts = scenario_insts 3 in
  let plain =
    Ck.with_config None (fun () ->
        List.map (fun (n, i) -> (n, result_fingerprint (explain i))) insts)
  in
  let batches0 = counter_value "engine.spill.batches" in
  let spilled =
    with_ckpt ~shuffles:false ~max_memory_bytes:1 (fun () ->
        List.map (fun (n, i) -> (n, result_fingerprint (explain i))) insts)
  in
  Alcotest.(check bool)
    "spill actually happened" true
    (counter_value "engine.spill.batches" - batches0 > 0);
  List.iter2
    (fun (name, expected) (_, got) ->
      Alcotest.(check string)
        (Fmt.str "%s: spilled run byte-identical" name)
        expected got)
    plain spilled

(* Pipeline-level chaos: checkpoints on, per-SA tracing faults flaking —
   explanations still byte-identical.  (Task-level faults are exercised
   by the exec-level test below, whose engine config carries the task
   retry budget.) *)
let test_pipeline_identical_under_recovery_chaos () =
  let insts = scenario_insts 3 in
  Obs.Faultinject.reset ();
  let plain =
    Ck.with_config None (fun () ->
        List.map (fun (n, i) -> (n, result_fingerprint (explain i))) insts)
  in
  Obs.Faultinject.arm "tracing.relaxed"
    (Obs.Faultinject.Flaky { period = 3; exn_ = transient "chaos" });
  let armed =
    with_ckpt ~shuffles:true (fun () ->
        List.map
          (fun (n, i) -> (n, result_fingerprint (explain ~retry:(fast_retries 3) i)))
          insts)
  in
  let fired = Obs.Faultinject.fired "tracing.relaxed" in
  Obs.Faultinject.reset ();
  Alcotest.(check bool) "chaos actually fired" true (fired > 0);
  List.iter2
    (fun (name, expected) (_, got) ->
      Alcotest.(check string)
        (Fmt.str "%s: chaos run byte-identical" name)
        expected got)
    plain armed

(* Exec-level chaos: task partitions flaking under a task retry budget,
   with checkpointed shuffles enabled — every query result identical. *)
let test_exec_identical_under_chaos_with_checkpoints () =
  let insts = scenario_insts 3 in
  let run retry (inst : Scenarios.Scenario.instance) =
    let phi = inst.Scenarios.Scenario.question in
    let r, _ =
      Engine.Exec.run
        ~config:{ Engine.Exec.partitions = 4; parallel = false; retry }
        phi.Whynot.Question.db phi.Whynot.Question.query
    in
    Value.to_string (Relation.data r)
  in
  Obs.Faultinject.reset ();
  let plain =
    Ck.with_config None (fun () ->
        List.map (fun (n, i) -> (n, run Engine.Fault.no_retry i)) insts)
  in
  Obs.Faultinject.arm "engine.partition"
    (Obs.Faultinject.Flaky { period = 20; exn_ = transient "chaos" });
  let armed =
    with_ckpt ~shuffles:true (fun () ->
        List.map (fun (n, i) -> (n, run (fast_retries 3) i)) insts)
  in
  let fired = Obs.Faultinject.fired "engine.partition" in
  Obs.Faultinject.reset ();
  Alcotest.(check bool) "chaos actually fired" true (fired > 0);
  List.iter2
    (fun (name, expected) (_, got) ->
      Alcotest.(check string)
        (Fmt.str "%s: chaos run identical" name)
        expected got)
    plain armed

(* --- pool supervision under chaos (arms the worker site) ------------------ *)

let test_pool_worker_death_survived () =
  Obs.Faultinject.reset ();
  Obs.Faultinject.arm "engine.pool.worker"
    (Obs.Faultinject.Fail { times = 1; exn_ = Failure "chaos: worker killed" });
  let pool = Engine.Pool.create ~size:2 () in
  let fut = Engine.Pool.submit pool (fun () -> 6 * 7) in
  Alcotest.(check int) "job survives the dead worker" 42
    (Engine.Pool.await fut);
  Engine.Pool.shutdown pool;
  Obs.Faultinject.reset ()

(* --- chaos-coverage lint --------------------------------------------------- *)

(* Every registered fault-injection site must have been armed by some
   test in this binary — a site nobody ever arms is dead chaos
   surface.  Runs last (suites execute in order). *)
let test_every_site_armed () =
  let registered = Obs.Faultinject.registered_sites () in
  let armed = Obs.Faultinject.ever_armed () in
  Alcotest.(check bool) "sites are registered" true (registered <> []);
  List.iter
    (fun site ->
      if not (List.mem site armed) then
        Alcotest.fail
          (Fmt.str
             "chaos site %S is registered but never armed by any test in \
              this binary — add a chaos test exercising it"
             site))
    registered

let () =
  Alcotest.run "recover"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_unframe_garbage;
          Alcotest.test_case "special shapes round-trip" `Quick
            test_codec_special_shapes;
          Alcotest.test_case "every truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "every frame bit-flip rejected" `Quick
            test_bitflips_rejected;
          Alcotest.test_case "payload bit-flips never crash" `Quick
            test_payload_bitflips_never_crash;
          Alcotest.test_case "malformed bag offsets rejected" `Quick
            test_malformed_bag_offsets_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replay from checkpoint" `Quick
            test_replay_from_checkpoint;
          Alcotest.test_case "replay from source without barrier" `Quick
            test_replay_from_source_without_barrier;
          Alcotest.test_case "torn shuffle read is retryable" `Quick
            test_torn_shuffle_read_is_retryable;
          Alcotest.test_case "garbled checkpoint recomputes" `Quick
            test_garbled_checkpoint_recomputes;
          Alcotest.test_case "barrier recompute is memoized" `Quick
            test_barrier_recompute_memoized;
          Alcotest.test_case "failed checkpoint write degrades" `Quick
            test_failed_checkpoint_write_degrades;
        ] );
      ( "spill",
        [
          Alcotest.test_case "spill and restore" `Quick test_spill_and_restore;
          Alcotest.test_case "under-watermark is a no-op" `Quick
            test_spill_under_watermark_is_noop;
          Alcotest.test_case "sweep deferred while a run is pinned" `Quick
            test_sweep_deferred_while_pinned;
          Alcotest.test_case "garbled spill write stays resident" `Quick
            test_garbled_spill_write_keeps_partition_resident;
          Alcotest.test_case "deleted spill file raises Spill_lost" `Quick
            test_deleted_spill_file_raises_spill_lost;
        ] );
      ( "pipeline byte-identity",
        [
          Alcotest.test_case "with checkpoints" `Quick
            test_pipeline_identical_with_checkpoints;
          Alcotest.test_case "under spill" `Quick
            test_pipeline_identical_under_spill;
          Alcotest.test_case "under recovery chaos" `Quick
            test_pipeline_identical_under_recovery_chaos;
          Alcotest.test_case "exec under task chaos" `Quick
            test_exec_identical_under_chaos_with_checkpoints;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker death survived" `Quick
            test_pool_worker_death_survived;
        ] );
      ( "chaos coverage",
        [
          Alcotest.test_case "every registered site armed" `Quick
            test_every_site_armed;
        ] );
    ]
