type t = {
  size : int;
  mutex : Mutex.t;
  ready : Condition.t;  (* a new generation was published *)
  finished : Condition.t;  (* pending dropped to 0 *)
  mutable job : int -> unit;
  mutable generation : int;
  mutable pending : int;
  mutable error : exn option;
  mutable stopping : bool;
  mutable busy : bool;
  mutable workers : unit Domain.t array;  (* [||] until first submission *)
  mutable spawn_failed : bool;  (* runtime refused a domain; don't retry *)
}

let no_job (_ : int) = ()

let create n =
  if n < 1 || n > 1024 then invalid_arg "Pool.create: size must be in 1..1024";
  {
    size = n;
    mutex = Mutex.create ();
    ready = Condition.create ();
    finished = Condition.create ();
    job = no_job;
    generation = 0;
    pending = 0;
    error = None;
    stopping = false;
    busy = false;
    workers = [||];
    spawn_failed = false;
  }

let size t = t.size

(* [gen0] is the generation at spawn time, captured while the spawner held
   the mutex: the worker must treat any later generation as new work, even
   one published before it first acquires the mutex. *)
let worker_loop t w gen0 =
  Mutex.lock t.mutex;
  let seen = ref gen0 in
  let rec loop () =
    while (not t.stopping) && t.generation = !seen do
      Condition.wait t.ready t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let job = t.job in
      Mutex.unlock t.mutex;
      let err = (try job w; None with e -> Some e) in
      Mutex.lock t.mutex;
      (match err with
      | Some e when t.error = None -> t.error <- Some e
      | _ -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.finished;
      loop ()
    end
  in
  loop ()

(* Must be called with [t.mutex] held.  The OCaml runtime caps live
   domains (Max_domains, 128); if a spawn is refused the pool keeps the
   workers it got and [run] covers the missing worker indexes on the
   caller instead of crashing. *)
let ensure_workers t =
  if Array.length t.workers = 0 && not t.spawn_failed then begin
    let gen0 = t.generation in
    let ws = ref [] in
    (try
       for i = 1 to t.size - 1 do
         ws := Domain.spawn (fun () -> worker_loop t i gen0) :: !ws
       done
     with _ -> t.spawn_failed <- true);
    t.workers <- Array.of_list (List.rev !ws)
  end

(* Set on the submitting domain while it runs its own share of a
   parallel region, alongside the workers. *)
let sharing = Domain.DLS.new_key (fun () -> false)
let in_region () = Domain.DLS.get sharing

let run_inline t f =
  for w = 0 to t.size - 1 do
    f w
  done

let run t f =
  if t.size <= 1 then f 0
  else begin
    Mutex.lock t.mutex;
    if t.busy || t.stopping then begin
      (* Nested submission: the pool's domains are already working for an
         enclosing parallel region, so this region runs inline. *)
      Mutex.unlock t.mutex;
      run_inline t f
    end
    else begin
      t.busy <- true;
      ensure_workers t;
      let live = Array.length t.workers in
      t.job <- f;
      t.error <- None;
      t.pending <- live;
      t.generation <- t.generation + 1;
      Condition.broadcast t.ready;
      Mutex.unlock t.mutex;
      let outer = Domain.DLS.get sharing in
      Domain.DLS.set sharing true;
      let main_err =
        try
          f 0;
          (* Worker indexes the runtime refused to spawn still run (on the
             caller), so [run]'s contract holds even degraded. *)
          for w = live + 1 to t.size - 1 do
            f w
          done;
          None
        with e -> Some e
      in
      Domain.DLS.set sharing outer;
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.finished t.mutex
      done;
      let worker_err = t.error in
      t.job <- no_job;
      t.error <- None;
      t.busy <- false;
      Mutex.unlock t.mutex;
      match main_err, worker_err with
      | Some e, _ | None, Some e -> raise e
      | None, None -> ()
    end
  end

let shutdown t =
  if t.size > 1 then begin
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.ready;
    let workers = t.workers in
    t.workers <- [||];
    Mutex.unlock t.mutex;
    Array.iter Domain.join workers
  end

let parallel_for t ~n f =
  if n > 0 then
    if t.size <= 1 || n = 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let next = Atomic.make 0 in
      run t (fun _w ->
          let rec go () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              f i;
              go ()
            end
          in
          go ())
    end

let map_reduce t ~n ~map ~fold ~init =
  if n <= 0 then init
  else if t.size <= 1 || n = 1 then begin
    let acc = ref init in
    for i = 0 to n - 1 do
      acc := fold !acc (map i)
    done;
    !acc
  end
  else begin
    let results = Array.make n None in
    parallel_for t ~n (fun i -> results.(i) <- Some (map i));
    Array.fold_left
      (fun acc r ->
        match r with Some v -> fold acc v | None -> assert false)
      init results
  end

let env_domains () =
  match Sys.getenv_opt "PROBKB_DOMAINS" with
  | None -> 1
  | Some s ->
    (* 128 is the runtime's Max_domains; asking for more can only fail. *)
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> min n 128
    | _ -> 1)

let default_pool = ref None

let get_default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create (env_domains ()) in
    default_pool := Some p;
    p

let set_default_size n =
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := Some (create n)
