(* Tier-1 runs in three executables (main_units, main_system and
   main_srvfault) so dune can run them side by side; the heaviest suites
   (runner, shard and srvfault) sit in different ones.

   Alcotest pads the suite column of every test line to the longest
   suite name registered in the run, and truncates the test name to the
   rest of an 80-column line.  Each executable therefore registers the
   longest suite name of the whole tier, "kernel-units", even where it
   holds none of that suite's tests, so every test line reads exactly
   as it did when one executable ran all the suites. *)
let widest = "kernel-units"

let run name suites =
  let suites =
    if List.mem_assoc widest suites then suites else suites @ [ (widest, []) ]
  in
  Alcotest.run name suites
