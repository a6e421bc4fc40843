(* A seeded population drawn to a fixed work budget.  Candidates come from
   a seeded stream and fall into size classes; each class has a fixed quota
   of members, filled in stream order.  The number of members in each
   class, and so the summed work, are then the same for every seed: the
   seed decides which candidates run, never how much work they add up
   to. *)

(* [draw ~pool ~quotas ~class_of ~candidate ~seed ()] looks at exactly
   [pool] candidates [candidate ~seed i], i = 0 .. pool - 1, so the draw
   itself costs the same for every seed, and keeps each one while the
   quota of its [class_of] class, from the [(class, quota)] list, has room.
   Fails when the pool cannot fill every quota. *)
let draw ~pool ~quotas ~class_of ~candidate ~seed () =
  if quotas = [] || List.exists (fun (_, q) -> q <= 0) quotas then
    invalid_arg "Population.draw: quotas must be positive";
  let room = Hashtbl.create 8 in
  List.iter (fun (c, q) -> Hashtbl.replace room c q) quotas;
  let kept = ref [] and left = ref (List.fold_left (fun s (_, q) -> s + q) 0 quotas) in
  for i = 0 to pool - 1 do
    let c = candidate ~seed i in
    let k = class_of c in
    match Hashtbl.find_opt room k with
    | Some r when r > 0 ->
        Hashtbl.replace room k (r - 1);
        kept := c :: !kept;
        decr left
    | _ -> ()
  done;
  if !left > 0 then
    failwith
      (Printf.sprintf "Population.draw: seed %d left %d slots in a pool of %d"
         seed !left pool);
  List.rev !kept

(* a per-candidate seed from the workload seed and the draw index *)
let sub_seed ~seed i = (seed * 1_000_003) + i
