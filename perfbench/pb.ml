(* pb — the OCaml half of the repository benchmark; perfbench/run.py is
   the driver and sequences these subcommands:

     pb gen W SEED DIR PART PARTS   write the seeded documents of workload W
                                    and the reference answers of its fixed
                                    requests and cache fillers
                                    (expected.PART.json)
     pb loop W SEED DIR SECONDS     the timed closed loop of W
     pb expect DIR PART PARTS       reference answers for the value-template
                                    requests a served run issued, compared
                                    with what the server answered
     pb layers W SEED DIR           per-layer probes under a tracer

   The program under test only ever sees the generated XML: run.py packs
   it with `xqp index` / `xqp pack` and times that as the set-up. Every
   subcommand prints one JSON object as its last line of output. *)

module J = Xqp_obs.Json
module Tr = Xqp_obs.Trace
module Session = Xqp.Session
module Response = Xqp.Response
module Executor = Xqp_physical.Executor
module Sg = Xqp_physical.Scatter_gather
module Store_io = Xqp_storage.Store_io
module Catalog = Xqp_storage.Catalog
module Succinct_store = Xqp_storage.Succinct_store
module Queries = Xqp_workload.Queries
module Prng = Xqp_workload.Prng

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

(* --- JSON output: full float precision (Json.to_string rounds to %.3f) -- *)

let rec json_out b = function
  | J.Null -> Buffer.add_string b "null"
  | J.Bool x -> Buffer.add_string b (string_of_bool x)
  | J.Num x when Float.is_integer x && Float.abs x < 1e15 ->
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  | J.Num x when Float.is_finite x -> Buffer.add_string b (Printf.sprintf "%.17g" x)
  | J.Num _ -> Buffer.add_string b "null"
  | J.Str s -> Buffer.add_string b (J.to_string (J.Str s))
  | J.Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        json_out b x)
      xs;
    Buffer.add_char b ']'
  | J.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        json_out b (J.Str k);
        Buffer.add_char b ':';
        json_out b v)
      kvs;
    Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 256 in
  json_out b j;
  Buffer.contents b

let print_json j = print_endline (json_string j)
let num x = J.Num x
let int n = J.Num (float_of_int n)
let str s = J.Str s

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let file_size path = (Unix.stat path).Unix.st_size

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* --- statistics ----------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between the closest ranks, so a small sample's
   median averages its middle pair; 0.0 on no samples *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* --- workloads ------------------------------------------------------------ *)

type workload = Cold | Warm | Serve | Corpus

let workload_of_string = function
  | "cold-3m" -> Cold
  | "warm-325k" -> Warm
  | "serve-325k" -> Serve
  | "corpus-10doc" -> Corpus
  | s -> failwith ("unknown workload " ^ s)

type request = { q : string; mode : string (* "xpath" | "xquery" *) }

let xpath q = { q; mode = "xpath" }
let xquery q = { q; mode = "xquery" }

(* the 13 auction queries Q1-Q6, C1-C7 *)
let auction_mix =
  List.map (fun (q : Queries.query) -> xpath q.Queries.xpath)
    (Queries.auction_paths @ Queries.auction_complexity_sweep)

(* each cold query forces a different lazy artifact: navigation only, a
   descendant-heavy twig, NoK with a value predicate, and a query the
   path summary proves empty *)
let cold_requests =
  List.map xpath
    [
      (Queries.by_id "Q1").Queries.xpath;
      (Queries.by_id "Q5").Queries.xpath;
      (Queries.by_id "Q6").Queries.xpath;
      "/site/people/item";
    ]

let serve_xqueries =
  [
    xquery "count(//open_auction[bidder/increase > 30])";
    xquery "for $p in /site/people/person where $p/profile/@income > 90000 return $p/name";
  ]

(* a query every shard prunes and a bib-only query that prunes the
   auction shards *)
let corpus_requests = auction_mix @ [ xpath "/site/people/item"; xpath "//book/title" ]

let fixed_requests = function
  | Cold -> cold_requests
  | Warm -> auction_mix
  | Serve -> auction_mix @ serve_xqueries
  | Corpus -> corpus_requests

(* Value-predicate templates over a seeded pool of constants (400
   distinct texts, more than the 256-entry shared plan cache holds). A
   run draws about 130 of them, so each is a plan-cache miss the first
   time it is drawn. *)
let template_pool seed =
  let rng = Prng.create ((seed * 7919) + 17) in
  Array.init 400 (fun i ->
      if i mod 2 = 0 then
        xpath
          (Printf.sprintf "//open_auction[bidder/increase > %d.%d]/current" (Prng.int rng 40)
             (Prng.int rng 10))
      else xpath (Printf.sprintf "//person[profile/@income > %d]/name" (20000 + Prng.int rng 80000)))

(* Other clients' queries: cheap distinct texts, half again as many as
   the shared plan cache holds. serve-325k sends them once before timing,
   so the cache starts full and every template the timed loop has not
   seen yet evicts an entry (its 8 shards fill unevenly, hence the
   surplus). *)
let cache_fillers seed =
  let rng = Prng.create ((seed * 6007) + 11) in
  let seen = Hashtbl.create 512 in
  let rec draw acc n =
    if n = 0 then List.rev acc
    else
      let k = 1 + Prng.int rng 4000 in
      if Hashtbl.mem seen k then draw acc n
      else (
        Hashtbl.add seen k ();
        draw (xpath (Printf.sprintf "/site/people/person[%d]/name" k) :: acc) (n - 1))
  in
  draw [] 384

(* the requests whose reference answers `pb gen` computes *)
let reference_requests w seed = fixed_requests w @ if w = Serve then cache_fillers seed else []

(* The seeded request stream, dealt in shuffled decks: each deck holds
   every fixed request once and, on serve-325k, one template from the
   pool per three fixed requests (one request in four). Dealing decks
   rather than drawing independently keeps the mix of a run the same
   from seed to seed; only the order and the constants vary. *)
let request_stream w seed =
  let rng = Prng.create ((seed * 104729) + 3) in
  let fixed = fixed_requests w in
  let pool = if w = Serve then template_pool seed else [||] in
  let templates = if w = Serve then List.length fixed / 3 else 0 in
  let deck = ref [] in
  let deal () =
    let cards = Array.of_list (fixed @ List.init templates (fun _ -> Prng.pick rng pool)) in
    for i = Array.length cards - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let c = cards.(i) in
      cards.(i) <- cards.(j);
      cards.(j) <- c
    done;
    deck := Array.to_list cards
  in
  fun () ->
    if !deck = [] then deal ();
    match !deck with
    | r :: rest ->
      deck := rest;
      r
    | [] -> assert false

(* documents: (file name, generator) in catalog order *)
let documents w seed =
  let auction name ~seed ~scale = (name, fun () -> Xqp_workload.Gen_auction.document ~seed ~scale ()) in
  match w with
  | Cold -> [ auction "doc.xml" ~seed ~scale:3_000_000 ]
  | Warm | Serve -> [ auction "doc.xml" ~seed ~scale:300_000 ]
  | Corpus ->
    List.init 8 (fun i -> auction (Printf.sprintf "a%d.xml" i) ~seed:((seed * 100) + i) ~scale:40_000)
    @ List.init 2 (fun i ->
          ( Printf.sprintf "b%d.xml" i,
            fun () -> Xqp_workload.Gen_bib.document ~seed:((seed * 100) + 50 + i) ~books:2400 () ))

(* --- answers -------------------------------------------------------------- *)

(* length-prefixed, so no choice of separator can make two different
   result lists collide *)
let digest strings =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    strings;
  Digest.to_hex (Digest.string (Buffer.contents b))

let ok_exn what = function
  | Ok x -> x
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Xqp.Error.message e))

let answer_strings session r =
  let engine = Executor.Reference in
  if r.mode = "xquery" then
    let x = ok_exn r.q (Session.run_xquery ~engine session r.q) in
    Session.xquery_result_strings session x.Session.value
  else
    let x = ok_exn r.q (Session.run ~engine session r.q) in
    List.map (Session.node_string session) x.Session.nodes

type expected = (string, int * string) Hashtbl.t

let expected_to_json (tbl : expected) =
  J.Obj
    (Hashtbl.fold
       (fun q (count, dg) acc -> (q, J.Arr [ int count; str dg ]) :: acc)
       tbl [])

(* expected.json, or its parts expected.K.json when gen was split *)
let load_expected dir : expected =
  let tbl = Hashtbl.create 64 in
  let load file =
    match J.parse (read_file (Filename.concat dir file)) with
    | J.Obj kvs ->
      List.iter
        (function
          | q, J.Arr [ J.Num c; J.Str d ] -> Hashtbl.replace tbl q (int_of_float c, d)
          | q, _ -> failwith ("bad expected entry " ^ q))
        kvs
    | _ -> failwith (file ^ ": not an object")
  in
  Array.iter
    (fun f -> if String.starts_with ~prefix:"expected." f && Filename.check_suffix f ".json" then load f)
    (Sys.readdir dir);
  tbl

(* --- gen ------------------------------------------------------------------- *)

(* Part [part] of [parts] computes the reference answers of every
   [parts]-th request (the cold-3m answers take seconds each, so run.py
   spreads them over processes); part 0 also writes the documents. *)
let gen w seed dir ~part ~parts =
  let requests = List.filteri (fun i _ -> i mod parts = part) (reference_requests w seed) in
  let answers : (string, string list list) Hashtbl.t = Hashtbl.create 32 in
  let nodes = ref 0 and xml_bytes = ref 0 in
  let phases = Hashtbl.create 4 in
  let phase name f =
    let r, ms = timed f in
    Hashtbl.replace phases name (ms +. Option.value ~default:0.0 (Hashtbl.find_opt phases name));
    r
  in
  let docs =
    List.map
      (fun (name, make) ->
        let tree = phase "generate_ms" make in
        let path = Filename.concat dir name in
        if part = 0 then (
          phase "serialize_ms" (fun () -> Xqp_xml.Serializer.to_file path tree);
          xml_bytes := !xml_bytes + file_size path);
        let session = phase "document_ms" (fun () -> Session.of_tree tree) in
        nodes := !nodes + Xqp_xml.Document.node_count (Session.document session);
        (* per document, in catalog order: a corpus answer is the
           concatenation of its documents' answers *)
        List.iter
          (fun r ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt answers r.q) in
            let answer = phase "reference_ms" (fun () -> answer_strings session r) in
            Hashtbl.replace answers r.q (answer :: prev))
          requests;
        str name)
      (documents w seed)
  in
  let expected : expected = Hashtbl.create 32 in
  Hashtbl.iter
    (fun q per_doc ->
      let all = List.concat (List.rev per_doc) in
      Hashtbl.replace expected q (List.length all, digest all))
    answers;
  write_file
    (Filename.concat dir (Printf.sprintf "expected.%d.json" part))
    (json_string (expected_to_json expected));
  print_json
    (J.Obj
       [
         ("docs", J.Arr docs);
         ("nodes", int !nodes);
         ("xml_bytes", int !xml_bytes);
         ("requests", int (List.length requests));
         ("phases", J.Obj (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) phases [] |> List.sort compare));
       ])

(* --- closed-loop bookkeeping ------------------------------------------------ *)

type tally = {
  mutable lat : float list;  (** ms, one per completed request *)
  mutable attempted : int;
  mutable failed : int;
  mutable hits : int;
  mutable lookups : int;  (** XPath requests that reported a cache status *)
  mutable errors : string list;
  mutable t_start : float;
  mutable t_end : float;
}

let tally () =
  {
    lat = [];
    attempted = 0;
    failed = 0;
    hits = 0;
    lookups = 0;
    errors = [];
    t_start = now ();
    t_end = now ();
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let cache_seen t label =
  if label = "hit" || label = "miss" then (
    t.lookups <- t.lookups + 1;
    if label = "hit" then t.hits <- t.hits + 1)

let summary t =
  let elapsed = t.t_end -. t.t_start in
  let n = List.length t.lat in
  J.Obj
    [
      ("attempted", int t.attempted);
      ("failed", int t.failed);
      ("samples", int n);
      ("p50_ms", num (median t.lat));
      ("p99_ms", num (percentile 0.99 t.lat));
      ("qps", num (if elapsed > 0.0 then float_of_int n /. elapsed else 0.0));
      ("elapsed_s", num elapsed);
      ( "hit_rate",
        num (if t.lookups = 0 then 0.0 else float_of_int t.hits /. float_of_int t.lookups) );
      ("errors", J.Arr (List.rev_map str t.errors));
    ]

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run [segment] untraced, or (traced run) an untraced half and a traced
   half, so the traced run reports its own overhead. The loops span every
   request and the layer call inside it; a disabled tracer makes that
   free. *)
let segments tracers ~seconds segment =
  match tracers with
  | [] -> [ ("untraced", segment ~seconds) ]
  | _ ->
    let a = segment ~seconds:(seconds /. 2.0) in
    List.iter (fun tr -> Tr.set_enabled tr true) tracers;
    let b = segment ~seconds:(seconds /. 2.0) in
    List.iter (fun tr -> Tr.set_enabled tr false) tracers;
    [ ("untraced", a); ("traced", b) ]

(* warm-up checks count as requests of the untraced segment *)
let with_warmup warm segs =
  List.map
    (fun (k, t) ->
      if k = "untraced" then (
        t.attempted <- t.attempted + warm.attempted;
        t.failed <- t.failed + warm.failed;
        t.errors <- t.errors @ warm.errors);
      (k, t))
    segs

let tracer k tracers = Option.value (List.nth_opt tracers k) ~default:Tr.default

let request_span tr id r ~layer f =
  Tr.with_span tr ~attrs:[ ("request_id", Tr.Int id); ("q", Tr.Str r.q) ] "request" (fun _ ->
      Tr.with_span tr layer (fun _ -> f ()))

(* --- cold: one `xqp query` process per request ------------------------------ *)

let read_all fd =
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

let spawn_query ~xqp ~store q =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process xqp [| xqp; "query"; "--json"; "-f"; store; q |] Unix.stdin wr devnull
  in
  Unix.close wr;
  Unix.close devnull;
  let out = read_all rd in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  (out, status, ms_since t0)

(* a --json response or a served body: the response and its results *)
let parse_response body =
  match Response.of_string (String.trim body) with
  | Error m -> Error ("unparsable response: " ^ m)
  | Ok resp -> (
    match resp.Response.outcome with
    | Error e -> Error (Xqp.Error.message e)
    | Ok p -> Ok (resp, p))

let check_answer t (expected : expected) r (p : Response.payload) =
  cache_seen t p.Response.cache;
  match Hashtbl.find_opt expected r.q with
  | None -> fail t (r.q ^ ": no reference answer")
  | Some (count, dg) ->
    if p.Response.count <> count || digest p.Response.results <> dg then
      fail t (Printf.sprintf "%s: %d results, expected %d" r.q p.Response.count count)

let cold_loop ~xqp ~dir ~seconds tracers =
  let store = Filename.concat dir "doc.xqdb" in
  let expected = load_expected dir in
  let id = ref 0 in
  let tr = tracer 0 tracers in
  let segment ~seconds =
    let t = tally () in
    let deadline = now () +. seconds in
    (* whole passes over the fixed list, at least one, so every run
       measures the same four queries *)
    let rec pass () =
      List.iter
        (fun r ->
          incr id;
          t.attempted <- t.attempted + 1;
          let out, status, ms =
            request_span tr !id r ~layer:"xqp.query" (fun () -> spawn_query ~xqp ~store r.q)
          in
          t.lat <- ms :: t.lat;
          match (status, parse_response out) with
          | Unix.WEXITED 0, Ok (_, p) -> check_answer t expected r p
          | _, Error m -> fail t (r.q ^ ": " ^ m)
          | _, Ok _ -> fail t (r.q ^ ": xqp query exited abnormally"))
        cold_requests;
      t.t_end <- now ();
      if now () < deadline then pass ()
    in
    pass ();
    t
  in
  (segments tracers ~seconds segment, [])

(* --- warm and corpus: Session.run in process --------------------------------- *)

let in_process_loop ~w ~seed ~dir ~seconds tracers =
  let path, domains =
    if w = Corpus then (Filename.concat dir "corpus.xqdbc", 2) else (Filename.concat dir "doc.xqdb", 1)
  in
  let session = ok_exn path (Session.open_db ~domains path) in
  let expected = load_expected dir in
  (* warm-up: every request twice; the first answer is serialized and
     checked against the reference, later ones must return the same
     node list *)
  let verified = Hashtbl.create 32 in
  let warm = tally () in
  List.iter
    (fun r ->
      warm.attempted <- warm.attempted + 1;
      match Session.run session r.q with
      | Error e -> fail warm (r.q ^ ": " ^ Xqp.Error.message e)
      | Ok x ->
        let strings = List.map (Session.node_string session) x.Session.nodes in
        (match Hashtbl.find_opt expected r.q with
        | Some (count, dg) when List.length strings = count && digest strings = dg -> ()
        | _ -> fail warm (r.q ^ ": differs from the reference answer"));
        Hashtbl.replace verified r.q x.Session.nodes;
        ignore (Session.run session r.q))
    (fixed_requests w);
  let next = request_stream w seed in
  let id = ref 0 in
  let tr = tracer 0 tracers in
  let segment ~seconds =
    let t = tally () in
    let deadline = now () +. seconds in
    while now () < deadline do
      let r = next () in
      incr id;
      t.attempted <- t.attempted + 1;
      let t0 = now () in
      let result = request_span tr !id r ~layer:"session.run" (fun () -> Session.run session r.q) in
      t.lat <- ms_since t0 :: t.lat;
      match result with
      | Error e -> fail t (r.q ^ ": " ^ Xqp.Error.message e)
      | Ok x ->
        cache_seen t (Executor.cache_status_label x.Session.cache);
        if Hashtbl.find_opt verified r.q <> Some x.Session.nodes then
          fail t (r.q ^ ": differs from the verified answer")
    done;
    t.t_end <- now ();
    t
  in
  let segs = segments tracers ~seconds segment in
  Session.close session;
  (with_warmup warm segs, [])

(* --- serve: a closed loop over keep-alive HTTP/1.1 connections ---------------- *)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* One response off [fd]; [pending] carries bytes read past the previous
   response. Returns the status code and body. *)
let read_response fd pending =
  let chunk = Bytes.create 65536 in
  let more () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "connection closed by the server"
    | n -> Buffer.add_subbytes pending chunk 0 n
  in
  let rec head () =
    match find_sub (Buffer.contents pending) "\r\n\r\n" with
    | Some i -> i
    | None ->
      more ();
      head ()
  in
  let blank = head () in
  let all = Buffer.contents pending in
  let lines = String.split_on_char '\n' (String.sub all 0 blank) |> List.map String.trim in
  let status = Scanf.sscanf (List.hd lines) "HTTP/%_s %d" Fun.id in
  let length =
    List.fold_left
      (fun acc l ->
        match String.index_opt l ':' with
        | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
          int_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> acc)
      0 (List.tl lines)
  in
  while Buffer.length pending < blank + 4 + length do
    more ()
  done;
  let all = Buffer.contents pending in
  let body = String.sub all (blank + 4) length in
  let rest = String.sub all (blank + 4 + length) (String.length all - blank - 4 - length) in
  Buffer.clear pending;
  Buffer.add_string pending rest;
  (status, body)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let http_get port path =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" path)
        0;
      read_response fd (Buffer.create 4096))

(* The /metrics counters a served run reads around its timed regions:
   busy time summed over the worker domains, rejections, plan-cache misses
   and evictions. *)
let counters = [ "busy_us"; "rejected"; "plan_cache.misses"; "plan_cache.evictions" ]

let scrape port =
  let _, body = http_get port "/metrics" in
  let get = Hashtbl.create 8 in
  let add k v = Hashtbl.replace get k (float_of_string v +. Option.value ~default:0.0 (Hashtbl.find_opt get k)) in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.starts_with ~prefix:"xqp_serve_domain_" name
                         && String.ends_with ~suffix:"_busy_us_total" name -> add "busy_us" v
      | [ "xqp_serve_rejected_total"; v ] -> add "rejected" v
      | [ "xqp_plan_cache_misses_total"; v ] -> add "plan_cache.misses" v
      | [ "xqp_plan_cache_evictions_total"; v ] -> add "plan_cache.evictions" v
      | _ -> ())
    (String.split_on_char '\n' body);
  List.map (fun k -> (k, Option.value ~default:0.0 (Hashtbl.find_opt get k))) counters

(* one keep-alive connection per core, at most two; the server runs two
   worker domains *)
let clients = max 1 (min 2 (Domain.recommended_domain_count ()))
let server_domains = 2

let query_request r =
  let body = json_string (J.Obj [ ("q", str r.q); ("mode", str r.mode) ]) in
  Printf.sprintf
    "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
     Content-Length: %d\r\n\r\n%s"
    (String.length body) body

(* One request down a keep-alive connection: (status, body) or an error. *)
let roundtrip fd pending r =
  try
    write_all fd (query_request r) 0;
    Ok (read_response fd pending)
  with e -> Error (Printexc.to_string e)

let serve_loop ~w ~seed ~dir ~port ~seconds tracers =
  let expected = load_expected dir in
  let next = request_stream w seed in
  let lock = Mutex.create () in
  let locked f = Mutex.protect lock f in
  (* template answers: checked against the reference after the run *)
  let observed : (string, (int * string) * int) Hashtbl.t = Hashtbl.create 512 in
  let queue = ref [] and exec = ref [] and overhead = ref [] in
  (* Responses are parsed and checked after the timed region, so the
     load generator only writes requests and reads bytes while timing. *)
  let check t (r, reply, ms) =
    t.attempted <- t.attempted + 1;
    match reply with
    | Error m -> fail t (r.q ^ ": " ^ m)
    | Ok (status, _) when status <> 200 -> fail t (Printf.sprintf "%s: HTTP %d" r.q status)
    | Ok (_, body) -> (
      match parse_response body with
      | Error m -> fail t (r.q ^ ": " ^ m)
      | Ok (resp, p) -> (
        t.lat <- ms :: t.lat;
        let q_ms = Option.value ~default:0.0 resp.Response.queue_ms in
        queue := q_ms :: !queue;
        exec := p.Response.time_ms :: !exec;
        overhead := (ms -. q_ms -. p.Response.time_ms) :: !overhead;
        if Hashtbl.mem expected r.q then check_answer t expected r p
        else (
          cache_seen t p.Response.cache;
          let answer = (p.Response.count, digest p.Response.results) in
          match Hashtbl.find_opt observed r.q with
          | None -> Hashtbl.replace observed r.q (answer, 1)
          | Some (seen, n) ->
            if seen <> answer then fail t (r.q ^ ": answer changed between requests")
            else Hashtbl.replace observed r.q (seen, n + 1))))
  in
  (* Cold-start probe. The server is fresh (it has answered only
     /health), and every client sends the same first request at once: a
     value-predicate query, so two worker domains force the unbuilt
     content index together. At present that raises
     CamlinternalLazy.Undefined in one of them and the server drops its
     connection. The failures are reported as server.cold_start_failures
     and in the run's context, not in the run's result: no client can
     avoid them until the program guards its lazy executor artifacts, and
     the workload must complete. *)
  let probe = tally () in
  let first = xpath (Queries.by_id "Q6").Queries.xpath in
  let fds = List.init clients (fun _ -> connect port) in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close fds)
    (fun () ->
      List.iter (fun fd -> write_all fd (query_request first) 0) fds;
      List.iter
        (fun fd ->
          let reply = try Ok (read_response fd (Buffer.create 4096)) with e -> Error (Printexc.to_string e) in
          check probe (first, reply, 0.0))
        fds);
  (* warm-up, one connection: the cache fillers, then each fixed request
     once, so the plan cache is full and the fixed requests' plans and the
     lazy server-side artifacts are built before timing *)
  let warm = tally () in
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let pending = Buffer.create 65536 in
      List.iter
        (fun r ->
          let t0 = now () in
          let reply = roundtrip fd pending r in
          check warm (r, reply, ms_since t0))
        (cache_fillers seed @ fixed_requests w));
  queue := [];
  exec := [];
  overhead := [];
  let id = ref 0 in
  (* /metrics counter deltas, client CPU and wall time of the timed regions *)
  let deltas = Hashtbl.create 8 and cpu = ref 0.0 and wall = ref 0.0 in
  let delta k = Option.value ~default:0.0 (Hashtbl.find_opt deltas k) in
  let segment ~seconds =
    let t = tally () in
    let replies = ref [] in
    let before = scrape port in
    let cpu0 = cpu_seconds () in
    t.t_start <- now ();
    let deadline = t.t_start +. seconds in
    let client k =
      let tr = tracer k tracers in
      let fd = connect port in
      let pending = Buffer.create 65536 in
      let rec go () =
        match locked (fun () -> if now () < deadline then (incr id; Some (!id, next ())) else None) with
        | None -> ()
        | Some (rid, r) ->
          let t0 = now () in
          let reply = request_span tr rid r ~layer:"http.roundtrip" (fun () -> roundtrip fd pending r) in
          let ms = ms_since t0 in
          locked (fun () -> replies := (r, reply, ms) :: !replies);
          if Result.is_ok reply then go ()
      in
      Fun.protect ~finally:(fun () -> Unix.close fd) go
    in
    let client k =
      try client k
      with e -> locked (fun () -> replies := (xpath "-", Error (Printexc.to_string e), 0.0) :: !replies)
    in
    let threads = List.init clients (fun k -> Thread.create client k) in
    List.iter Thread.join threads;
    t.t_end <- now ();
    cpu := !cpu +. cpu_seconds () -. cpu0;
    wall := !wall +. t.t_end -. t.t_start;
    List.iter2 (fun (k, v0) (_, v1) -> Hashtbl.replace deltas k (delta k +. v1 -. v0)) before (scrape port);
    List.iter (check t) (List.rev !replies);
    t
  in
  let segs = segments tracers ~seconds segment in
  write_file
    (Filename.concat dir "observed.json")
    (json_string
       (J.Obj
          (Hashtbl.fold
             (fun q ((c, d), n) acc -> (q, J.Arr [ int c; str d; int n ]) :: acc)
             observed [])));
  let server =
    [
      ("server.queue_ms.p50", num (median !queue));
      ("server.queue_ms.p99", num (percentile 0.99 !queue));
      ("server.exec_ms.p50", num (median !exec));
      ("server.overhead_ms.p50", num (median !overhead));
      ("server.overhead_ms.p99", num (percentile 0.99 !overhead));
      ("server.busy_frac", num (delta "busy_us" /. (!wall *. 1e6 *. float_of_int server_domains)));
      ("server.rejected", num (delta "rejected"));
      ("server.cold_start_failures", int probe.failed);
      ("client.cpu_frac", num (!cpu /. !wall));
    ]
  in
  let plan_cache =
    List.filter_map
      (fun k -> if String.starts_with ~prefix:"plan_cache." k then Some (k, num (delta k)) else None)
      counters
  in
  let cold_start =
    [
      ("attempted", int probe.attempted);
      ("failed", int probe.failed);
      ("errors", J.Arr (List.rev_map str probe.errors));
    ]
  in
  ( with_warmup warm segs,
    [ ("server", J.Obj server); ("plan_cache", J.Obj plan_cache); ("cold_start", J.Obj cold_start) ] )

(* --- loop -------------------------------------------------------------------- *)

(* Self time of each span name: duration minus what its children cover. *)
let self_times events =
  let child_us = Hashtbl.create 64 in
  List.iter
    (fun (e : Tr.event) ->
      if e.Tr.parent >= 0 then
        Hashtbl.replace child_us e.Tr.parent
          (Tr.duration_us e +. Option.value ~default:0.0 (Hashtbl.find_opt child_us e.Tr.parent)))
    events;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (e : Tr.event) ->
      let self = Tr.duration_us e -. Option.value ~default:0.0 (Hashtbl.find_opt child_us e.Tr.id) in
      let n, total, s = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name e.Tr.name) in
      Hashtbl.replace by_name e.Tr.name (n + 1, total +. Tr.duration_us e, s +. self))
    events;
  J.Obj
    (Hashtbl.fold
       (fun name (n, total, s) acc ->
         ( name,
           J.Obj [ ("spans", int n); ("total_ms", num (total /. 1000.0)); ("self_ms", num (s /. 1000.0)) ] )
         :: acc)
       by_name []
    |> List.sort compare)

(* Chrome trace of several tracers, one thread lane each. *)
let write_chrome path tracers =
  let lanes =
    List.mapi
      (fun k tr ->
        match J.member "traceEvents" (J.parse (Xqp_obs.Export.to_chrome_json ~process_name:"perfbench" (Tr.events tr))) with
        | Some (J.Arr evs) ->
          List.map
            (function
              | J.Obj kvs -> J.Obj (List.map (fun (f, v) -> if f = "tid" then (f, int (k + 1)) else (f, v)) kvs)
              | ev -> ev)
            evs
        | _ -> [])
      tracers
  in
  write_file path (json_string (J.Obj [ ("traceEvents", J.Arr (List.concat lanes)) ]))

let trace_report path tracers =
  let dropped = List.fold_left (fun acc tr -> acc + Tr.dropped tr) 0 tracers in
  write_chrome path tracers;
  [
    ("trace_file", str path);
    ("trace_dropped", int dropped);
    ("trace_spans", int (List.fold_left (fun acc tr -> acc + List.length (Tr.events tr)) 0 tracers));
    ("self_time", self_times (List.concat_map Tr.events tracers));
  ]

let loop w seed dir seconds ~xqp ~port ~trace_out =
  let tracers =
    match trace_out with
    | None -> []
    | Some _ -> List.init (if w = Serve then clients else 1) (fun _ -> Tr.create ~capacity:1_000_000 ())
  in
  let cpu0 = cpu_seconds () and wall0 = now () in
  let segs, extra =
    match w with
    | Cold -> cold_loop ~xqp ~dir ~seconds tracers
    | Warm | Corpus -> in_process_loop ~w ~seed ~dir ~seconds tracers
    | Serve -> serve_loop ~w ~seed ~dir ~port ~seconds tracers
  in
  let cpu_frac = (cpu_seconds () -. cpu0) /. (now () -. wall0) in
  let trace = match trace_out with None -> [] | Some path -> trace_report path tracers in
  print_json
    (J.Obj
       ([
          ("segments", J.Obj (List.map (fun (k, t) -> (k, summary t)) segs));
          ("rss_mb", num (vm_hwm_mb ()));
          ("cpu_frac", num cpu_frac);
          ("clients", int (if w = Serve then clients else 1));
        ]
       @ extra @ trace))

(* --- expect ------------------------------------------------------------------ *)

(* Each distinct template text once; part [part] of [parts], so run.py
   can spread the checks over processes (the server is down by now). *)
let expect dir ~part ~parts =
  let observed =
    match J.parse (read_file (Filename.concat dir "observed.json")) with
    | J.Obj kvs ->
      List.map
        (function
          | q, J.Arr [ J.Num c; J.Str d; J.Num n ] -> (q, int_of_float c, d, int_of_float n)
          | q, _ -> failwith ("bad observed entry " ^ q))
        kvs
    | _ -> failwith "observed.json: not an object"
  in
  let mine = List.filteri (fun i _ -> i mod parts = part) observed in
  let session = ok_exn "doc.xqdb" (Session.open_db (Filename.concat dir "doc.xqdb")) in
  let mismatches =
    List.filter_map
      (fun (q, c, d, n) ->
        let strings = answer_strings session (xpath q) in
        if List.length strings <> c || digest strings <> d then Some (q, n) else None)
      mine
  in
  print_json
    (J.Obj
       [
         ("checked", int (List.length mine));
         ("mismatched_requests", int (List.fold_left (fun acc (_, n) -> acc + n) 0 mismatches));
         ("errors", J.Arr (List.map (fun (q, _) -> str (q ^ ": differs from the reference answer")) mismatches));
       ])

(* --- layers ------------------------------------------------------------------- *)

let engines =
  Executor.
    [
      ("navigation.ms", Navigation);
      ("nok.ms", Nok);
      ("path_stack.ms", Pathstack);
      ("twig_stack.ms", Twigstack);
      ("binary_join.default_ms", Binary_default);
      ("binary_join.best_ms", Binary_best);
      ("auto.ms", Auto);
    ]

let sum = List.fold_left ( +. ) 0.0
let repeat n f = List.init n (fun _ -> f ())

(* Per-layer probes, each a timed call into a layer's public function
   under its own span. Run in a fresh process: the open path and the
   lazy executor artifacts are measured cold, and [session.open_rss_mb]
   is the high-water mark right after the open. Layers a workload does
   not exercise (the server outside serve-325k, catalogs outside
   corpus-10doc) report 0. *)
let layers w seed dir ~trace_out =
  let tr = Tr.create ~capacity:1_000_000 () in
  Tr.set_enabled tr true;
  let timed_span ?(attrs = []) name f = timed (fun () -> Tr.with_span tr ~attrs name (fun _ -> f ())) in
  let failures = ref [] in
  let failed msg = failures := msg :: !failures in
  let expected = load_expected dir in
  let reps = if w = Cold then 1 else 5 in
  (* store_io / session / lazy executor artifacts, on the workload's store
     (on corpus-10doc: its first member document, packed alone by run.py) *)
  let store = Filename.concat dir (if w = Corpus then "a0.xqdb" else "doc.xqdb") in
  let session, open_ms = timed_span "session.open_db" (fun () -> ok_exn store (Session.open_db store)) in
  let open_rss_mb = vm_hwm_mb () in
  let exe = Session.executor session in
  let _, statistics_ms = timed_span "executor.statistics" (fun () -> ignore (Executor.statistics exe)) in
  let _, store_ms = timed_span "executor.store" (fun () -> ignore (Executor.store exe)) in
  let _, content_index_ms =
    timed_span "executor.content_index" (fun () -> ignore (Executor.content_index exe))
  in
  let _, read_ms = timed_span "store_io.read_file" (fun () -> ignore (Store_io.read_file store)) in
  let loaded, load_ms = timed_span "store_io.load" (fun () -> Store_io.load store) in
  let resave = Filename.concat dir "resave.xqdb" in
  let _, save_ms = timed_span "store_io.save" (fun () -> Store_io.save loaded resave) in
  let bytes_per_node =
    float_of_int (file_size resave) /. float_of_int (Succinct_store.node_count loaded)
  in
  Sys.remove resave;
  (* the session the query layers run on: the catalog on corpus-10doc *)
  let catalog = Filename.concat dir "corpus.xqdbc" in
  let qs =
    if w = Corpus then ok_exn catalog (Session.open_db ~domains:2 catalog) else session
  in
  let qexe = Session.executor qs in
  let queries = match w with Cold -> cold_requests | Corpus -> corpus_requests | Warm | Serve -> auction_mix in
  let check_strings what r strings =
    match Hashtbl.find_opt expected r.q with
    | Some (count, dg) when List.length strings = count && digest strings = dg -> ()
    | Some _ -> failed (what ^ " " ^ r.q ^ ": differs from the reference answer")
    | None -> ()
  in
  (* τ engines: per query, the median of [reps] runs after one checked
     warm-up run (on cold-3m the single checked run is the sample) *)
  let per_engine =
    List.map
      (fun (name, e) ->
        let label = Executor.strategy_name e in
        let per_query =
          List.map
            (fun r ->
              let run () =
                timed_span ~attrs:[ ("q", Tr.Str r.q) ] ("engine." ^ label) (fun () ->
                    Session.run ~engine:e qs r.q)
              in
              let checked (res, ms) =
                (match res with
                | Error err -> failed (label ^ " " ^ r.q ^ ": " ^ Xqp.Error.message err)
                | Ok x -> check_strings label r (List.map (Session.node_string qs) x.Session.nodes));
                ms
              in
              if w = Cold then checked (run ())
              else (
                ignore (checked (run ()));
                median (repeat reps (fun () -> snd (run ())))))
            queries
        in
        (name, per_query))
      engines
  in
  let auto = List.assoc "auto.ms" per_engine in
  let best =
    List.mapi
      (fun i _ ->
        List.fold_left
          (fun acc (name, per_query) -> if name = "auto.ms" then acc else Float.min acc (List.nth per_query i))
          infinity per_engine)
      queries
  in
  let auto_misses = List.length (List.filter (fun (a, b) -> a > 1.25 *. b) (List.combine auto best)) in
  (* plan quality and page touches of the Auto plans *)
  let profiled =
    List.filter_map
      (fun r ->
        match
          Tr.with_span tr ~attrs:[ ("q", Tr.Str r.q) ] "session.run_profiled" (fun _ ->
              Session.run_profiled ~profile_ops:true qs r.q)
        with
        | Ok p -> Some p
        | Error e ->
          failed (r.q ^ ": " ^ Xqp.Error.message e);
          None)
      queries
  in
  let q_error_max = List.fold_left (fun acc p -> Float.max acc p.Session.worst_q_error) 1.0 profiled in
  let pages = mean (List.map (fun p -> float_of_int p.Session.pages_read) profiled) in
  (* allocation per query *)
  let gc_queries = List.length queries * reps in
  let g0 = Gc.quick_stat () in
  Tr.with_span tr "gc.window" (fun _ ->
      for _ = 1 to reps do
        List.iter (fun r -> ignore (Session.run qs r.q)) queries
      done);
  let g1 = Gc.quick_stat () in
  let minor_mb = (g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. 1e6 /. float_of_int gc_queries in
  let majors =
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)
    *. 1000.0 /. float_of_int gc_queries
  in
  (* front end, uncached, per distinct XPath text *)
  let replay =
    match w with
    | Serve ->
      let next = request_stream w seed in
      List.init 60 (fun _ -> next ())
    | _ -> queries
  in
  let texts =
    List.sort_uniq compare
      (List.filter_map (fun r -> if r.mode = "xpath" then Some r.q else None) (queries @ replay))
  in
  let front =
    List.map
      (fun q ->
        (* batches of 100 calls, one span each: a single call is near
           the clock's resolution *)
        let us name f =
          median
            (repeat 5 (fun () ->
                 snd
                   (timed_span ~attrs:[ ("q", Tr.Str q) ] name (fun () ->
                        for _ = 1 to 100 do
                          f ()
                        done))
                 *. 10.0))
        in
        let plan = Xqp_xpath.Parser.parse q in
        let simple = Xqp_algebra.Rewrite.simplify plan in
        ( us "xpath.parse" (fun () -> ignore (Xqp_xpath.Parser.parse q)),
          us "rewrite.simplify" (fun () -> ignore (Xqp_algebra.Rewrite.simplify plan)),
          (* Planner.compile without [~choose] costs every pattern afresh,
             as a plan-cache miss on a text the server has not seen does;
             Executor.compile would answer Auto from its memo table *)
          us "planner.compile" (fun () ->
              ignore (Xqp_physical.Planner.compile ~strategy:Executor.Auto (Executor.statistics qexe) simple)) ))
      texts
  in
  let front_mean f = mean (List.map f front) in
  (* results to the wire: serialization and response encoding over the
     replayed mix; XQuery end to end *)
  let wire =
    List.filter_map
      (fun r ->
        if r.mode <> "xpath" then None
        else
          match Session.run qs r.q with
          | Error _ -> None
          | Ok x ->
            let m f = median (repeat (if w = Cold then 1 else 3) (fun () -> snd (timed f))) in
            Some
              ( m (fun () ->
                    Tr.with_span tr "serializer.results" (fun _ ->
                        ignore (List.map (Session.node_string qs) x.Session.nodes))),
                m (fun () ->
                    Tr.with_span tr "response.encode" (fun _ ->
                        ignore (Response.to_string (Response.of_query_result qs ~query:r.q x)))) ))
      replay
  in
  let xquery_ms =
    mean
      (List.map
         (fun r ->
           median
             (repeat (if w = Cold then 1 else 3) (fun () ->
                  let res, ms =
                    timed_span ~attrs:[ ("q", Tr.Str r.q) ] "xquery.run" (fun () -> Session.run_xquery qs r.q)
                  in
                  (match res with
                  | Error e -> failed (r.q ^ ": " ^ Xqp.Error.message e)
                  | Ok x -> check_strings "xquery" r (Session.xquery_result_strings qs x.Session.value));
                  ms)))
         serve_xqueries)
  in
  (* catalog and scatter-gather, on a handle of the benchmark's own *)
  let sg, catalog_load_ms =
    if w = Corpus then
      let cat, ms = timed_span "catalog.load" (fun () -> Catalog.load catalog) in
      (Some (Sg.open_catalog ~domains:2 cat), ms)
    else (None, 0.0)
  in
  let run_plan plan =
    let context = [ Xqp_algebra.Operators.document_context ] in
    match sg with
    | None -> ignore (Executor.run_physical exe plan ~context)
    | Some sg ->
      for ordinal = 0 to Sg.doc_count sg - 1 do
        Sg.with_doc_executor sg ~ordinal (fun e -> ignore (Executor.run_physical e plan ~context))
      done
  in
  let materialize_ms =
    match sg with
    | None -> 0.0
    | Some sg ->
      mean
        (List.init (Sg.doc_count sg) (fun ordinal ->
             snd
               (timed_span ~attrs:[ ("ordinal", Tr.Int ordinal) ] "scatter_gather.materialize" (fun () ->
                    ignore (Sg.document sg ~ordinal)))))
  in
  (* the executor alone on the cached Auto plan (corpus: summed over the
     member documents), median over the mix *)
  let planner = match sg with Some sg -> Sg.planner sg | None -> exe in
  let exec_ms =
    median
      (List.map
         (fun r ->
           let plan = Executor.compile_query planner ~strategy:Executor.Auto r.q in
           if w <> Cold then run_plan plan;
           median
             (repeat reps (fun () ->
                  snd
                    (timed_span ~attrs:[ ("q", Tr.Str r.q) ] "executor.run_physical" (fun () ->
                         run_plan plan)))))
         queries)
  in
  let sg_runs =
    match sg with
    | None -> []
    | Some sg ->
      List.map
        (fun r ->
          let plan = Executor.compile_query planner ~strategy:Executor.Auto r.q in
          let first = Sg.run sg plan in
          let ms =
            median
              (repeat reps (fun () ->
                   snd (timed_span ~attrs:[ ("q", Tr.Str r.q) ] "scatter_gather.run" (fun () -> Sg.run sg plan))))
          in
          let pruned = List.length (List.filter (fun rep -> rep.Sg.pruned) first.Sg.reports) in
          (ms, List.length first.Sg.reports - pruned, pruned))
        queries
  in
  Option.iter Sg.close sg;
  if w = Corpus then Session.close qs;
  let shard_slots = sum (List.map (fun (_, d, p) -> float_of_int (d + p)) sg_runs) in
  let engine_total name = sum (List.assoc name per_engine) in
  let metrics =
    List.map (fun (name, _) -> (name, engine_total name)) engines
    @ [
        ("store_io.read_ms", read_ms);
        ("store_io.load_ms", load_ms);
        ("store_io.save_ms", save_ms);
        ("store_io.bytes_per_node", bytes_per_node);
        ("session.open_ms", open_ms);
        ("session.rebuild_ms", open_ms -. load_ms);
        ("session.open_rss_mb", open_rss_mb);
        ("executor.statistics_ms", statistics_ms);
        ("executor.store_ms", store_ms);
        ("executor.content_index_ms", content_index_ms);
        ("xpath.parse_us", front_mean (fun (p, _, _) -> p));
        ("rewrite.simplify_us", front_mean (fun (_, s, _) -> s));
        ("planner.compile_us", front_mean (fun (_, _, c) -> c));
        ("planner.auto_regret", engine_total "auto.ms" /. sum best);
        ("planner.auto_misses", float_of_int auto_misses);
        ("planner.q_error_max", q_error_max);
        ("executor.exec_ms", exec_ms);
        ("pager.reads_per_query", pages);
        ("gc.minor_mb_per_query", minor_mb);
        ("gc.major_per_1k_queries", majors);
        ("serializer.results_ms", mean (List.map fst wire));
        ("response.encode_ms", mean (List.map snd wire));
        ("xquery.run_ms", xquery_ms);
        ("catalog.load_ms", catalog_load_ms);
        ("scatter_gather.materialize_ms", materialize_ms);
        ("scatter_gather.run_ms", median (List.map (fun (ms, _, _) -> ms) sg_runs));
        ( "scatter_gather.shards_per_query",
          mean (List.map (fun (_, d, _) -> float_of_int d) sg_runs) );
        ( "scatter_gather.pruned_frac",
          if shard_slots > 0.0 then sum (List.map (fun (_, _, p) -> float_of_int p) sg_runs) /. shard_slots
          else 0.0 );
      ]
  in
  let trace = trace_report trace_out [ tr ] in
  print_json
    (J.Obj
       ([
          ("metrics", J.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
          ("failures", J.Arr (List.rev_map str !failures));
          ("nodes", int (Succinct_store.node_count loaded));
          ("engine_queries", int (List.length queries));
          ("front_end_texts", int (List.length texts));
        ]
       @ trace))

(* --- main ---------------------------------------------------------------------- *)

let () =
  let xqp = ref "" and port = ref 0 and trace_out = ref None in
  let anon = ref [] in
  Arg.parse
    [
      ("--xqp", Arg.Set_string xqp, "PATH xqp binary (cold-3m loop)");
      ("--port", Arg.Set_int port, "PORT xqp serve port (serve-325k loop)");
      ("--trace-out", Arg.String (fun p -> trace_out := Some p), "FILE Chrome trace output");
    ]
    (fun a -> anon := a :: !anon)
    "pb gen|loop|expect|layers ARGS";
  match List.rev !anon with
  | [ "gen"; w; seed; dir; part; parts ] ->
    gen (workload_of_string w) (int_of_string seed) dir ~part:(int_of_string part)
      ~parts:(int_of_string parts)
  | [ "loop"; w; seed; dir; seconds ] ->
    loop (workload_of_string w) (int_of_string seed) dir (float_of_string seconds) ~xqp:!xqp
      ~port:!port ~trace_out:!trace_out
  | [ "expect"; dir; part; parts ] -> expect dir ~part:(int_of_string part) ~parts:(int_of_string parts)
  | [ "layers"; w; seed; dir ] ->
    layers (workload_of_string w) (int_of_string seed) dir
      ~trace_out:(Option.value !trace_out ~default:(Filename.concat dir "layers-trace.json"))
  | _ ->
    prerr_endline "usage: pb gen|loop|expect|layers ARGS";
    exit 2
