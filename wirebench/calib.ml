(* A fixed unit of bench-side work that says how fast the machine is
   running right now.  Its code is the benchmark's own, so it is the same
   for every commit measured; only the machine changes its time.

   On a shared host the speed of the vCPUs drifts by a third or more
   over minutes (other tenants on the same cores and memory), and that
   slows the server's own work, not just its scheduling.  Timing this
   kernel between slices of a window, while the server is stopped, and
   scaling the window's timings by [speed], cancels most of that drift
   (wirebench/README.md, "Calibration").

   The kernel mixes what the server's pipeline does: dependent loads
   through 8 MiB (beyond the caches), string hashing into a table, an
   int sort and list allocation; 12-20 ms on the reference machine
   (2 vCPUs, Intel Xeon), depending on its load. *)

(* 8 MiB of ints: t.(i) = (1664525 i + 1013904223) mod 2^20, a single
   cycle through every index (a full-period linear congruence) that the
   prefetcher cannot follow *)
let table = Array.init (1 lsl 20) (fun i -> ((1664525 * i) + 1013904223) land ((1 lsl 20) - 1))

let work () =
  let t = table in
  let j = ref 0 in
  for _ = 1 to 20_000 do
    j := t.(!j)
  done;
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (string_of_int (i land 4095)) i
  done;
  let a = Array.init 20_000 (fun i -> i * 48271 mod 65521) in
  Array.sort compare a;
  let l = List.init 40_000 Fun.id in
  !j + Hashtbl.length h + a.(0) + List.fold_left ( + ) 0 (List.rev l)

(* Milliseconds one [work] takes. *)
let time_ms () =
  let t0 = Obs.Clock.now_ns () in
  ignore (Sys.opaque_identity (work ()) : int);
  Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0)

(* The reference speed: the one at which [work] takes this long. *)
let reference_ms = 10.

(* From one run to the next, the server's times move as the kernel's to
   the power [exponent]: the least-squares slope of log time over log
   kernel time, over 20 runs of one commit per workload, was 1.2-1.5
   for throughput and median latency (correlation 0.88-0.97), and 0.9-1.2
   for set-up.  Any exponent from 1.25 to 1.5 left the spreads within
   0.03 of each other.  The server runs on both vCPUs and over a heap of
   100-400 MiB, so a slow machine costs it more than the kernel. *)
let exponent = 1.5

(* The factor that scales a time to the reference speed (a rate is
   divided by it): ([reference_ms] over the mean calibration time) to
   the [exponent]; below 1 when the machine ran slow.  The mean, not
   the median, because the slow spells the mean counts slow the server
   too. *)
let speed calib_ms =
  let mean = List.fold_left ( +. ) 0. calib_ms /. float_of_int (List.length calib_ms) in
  (reference_ms /. mean) ** exponent
