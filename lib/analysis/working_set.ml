let default_sizes = [ 2048; 4096; 8192; 16384; 32768; 65536; 131072 ]

let curve ?(sizes = default_sizes) ?(line_bytes = 64) ?(assoc = 4) src =
  if sizes = [] then invalid_arg "Working_set.curve: no sizes";
  let sizes = List.sort_uniq compare sizes in
  let results =
    Icache_sweep.run src
      (Array.of_list
         (List.map (fun s -> Icache_sweep.cfg (s, line_bytes, assoc)) sizes))
  in
  List.mapi
    (fun i s -> (s, Icache_sweep.mpki results.(i) Branch_mix.Total))
    sizes

let knee ?(threshold = 0.5) curve =
  match List.rev curve with
  | [] | [ _ ] -> None
  | (_, best) :: _ ->
      if Float.is_nan best then None
      else
        List.find_map
          (fun (size, mpki) ->
            if (not (Float.is_nan mpki)) && mpki <= best +. threshold then
              Some size
            else None)
          curve
