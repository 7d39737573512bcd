(* The machine-speed reference of the benchmark.

     calib.exe

   For every line read on standard input, runs one round of fixed OCaml work
   and prints the host seconds it took.  capbench/main.exe starts it as a
   helper and asks for a round every quarter second of the batch, waiting
   for the answer, so the reference runs in step with the workload on the
   same host moments.  perfbench/run.py scales each stretch of the
   workload's host time by the reference's nominal time over the measured
   time of the rounds around it: the shared host's speed drifts by tens of
   percent within seconds, and this takes most of the drift out of the
   comparison between two commits.

   The round allocates heavily, because the simulator does and because
   only allocating work followed the simulator's slowdowns when measured:
   an integer loop and a pointer chase over a fixed array did not.
   It runs in its own process so that its garbage never adds to the
   workload's collections, nor the workload's to its own.  It links nothing
   of lib/, so no change to the simulator can change it. *)

module IM = Map.Make (Int)

(* a balanced map, a hash table, list sorting, integer and float arithmetic;
   the same work on every call *)
let round () =
  let st = Random.State.make [| 1 |] in
  let m = ref IM.empty in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 20_000 do
    let k = Random.State.int st 100_000 in
    m := IM.add k i !m;
    Hashtbl.replace h (k land 4095) (i, k);
    acc := !acc + ((k * i) lxor (k lsr 3))
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> i * 7919 mod 20_011)) in
  let f = ref 0.0 in
  List.iteri (fun i x -> f := !f +. (float_of_int x /. float_of_int (i + 1))) l;
  IM.cardinal !m + Hashtbl.length h + !acc + int_of_float !f

let () =
  (* the first round grows the heap; only steady rounds are measured *)
  ignore (round () : int);
  try
    while true do
      ignore (input_line stdin : string);
      let t0 = Unix.gettimeofday () in
      let check = round () in
      let t1 = Unix.gettimeofday () in
      (* the checksum keeps the work from being optimised away *)
      Printf.printf "%.9f %d\n%!" (t1 -. t0) (check land 0xffff)
    done
  with End_of_file -> ()
