(* The host-speed reference: an in-place shell sort of 4,096 ints.  It is
   branchy, stays resident in the L1/L2 caches and allocates nothing once
   the buffer exists, and it uses only Stdlib, so no change to the program
   under test can move it.  Timing it between cells tracks how fast the
   host runs at that moment. *)

let size = 4096
let buf = Array.make size 0

(* Ciura's gap sequence *)
let gaps = [| 1750; 701; 301; 132; 57; 23; 10; 4; 1 |]

(* refill with the same pseudo-random permutation-like data every time *)
let fill (buf : int array) =
  let x = ref 0x2545F491 in
  for i = 0 to size - 1 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    buf.(i) <- !x
  done

let sort (buf : int array) =
  for g = 0 to Array.length gaps - 1 do
    let gap = gaps.(g) in
    for i = gap to size - 1 do
      let v = buf.(i) in
      let j = ref i in
      while !j >= gap && buf.(!j - gap) > v do
        buf.(!j) <- buf.(!j - gap);
        j := !j - gap
      done;
      buf.(!j) <- v
    done
  done

let sorted () =
  let ok = ref true in
  for i = 1 to size - 1 do
    if buf.(i - 1) > buf.(i) then ok := false
  done;
  !ok

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* one timed pass over [buf], in ns *)
let time_in buf =
  fill buf;
  let t0 = now_ns () in
  sort buf;
  let t1 = now_ns () in
  t1 - t0

let time_ns () = time_in buf

(* The median of five back-to-back passes: one preempted pass cannot move
   it. *)
let sample_in buf =
  let a = Array.init 5 (fun _ -> time_in buf) in
  Array.sort compare a;
  a.(2)

let sample_ns () = sample_in buf

(* A sample taken on [domains] domains at once, each sorting its own
   buffer, averaged: how fast the host runs work spread over that many
   cores, as a multi-domain run sees it. *)
let sample_domains_ns domains =
  let others =
    List.init (domains - 1) (fun _ ->
        Domain.spawn (fun () -> sample_in (Array.make size 0)))
  in
  let mine = sample_ns () in
  let all = mine :: List.map Domain.join others in
  float_of_int (List.fold_left ( + ) 0 all) /. float_of_int domains
