(** Seed-0 golden digests: batch 0's output digest per workload and
    scale (1 = full, 50 = the smoke scale).  A mismatch means the
    program's behaviour changed, not its speed; the ledger then reports
    the run as incorrect.  A change that alters behaviour on purpose
    updates these with the new digests and says why. *)

let digests =
  [
    ( ("chaos-oracle", 1),
      "violations{} cx[] runs=5000 faults=5000/12844 \
       false_suspicions=0,elections_started=0,elections=2298,epoch_rejected_directives=0" );
    ( ("chaos-detector", 1),
      "violations{} cx[] runs=125 faults=125/440 \
       false_suspicions=94,elections_started=48,elections=121,epoch_rejected_directives=40" );
    (("kv-mixed", 1), "committed=1980 aborted=20 pending=0 p50=9.1838 p99=29.7392 msgs=27364 forces=21650");
    ( ("kv-chaos", 1),
      "violations{} failing[] chaos_runs=1000,messages_sent=86677,wal_forces=74445,crashes=701,recoveries=430" );
    (("check-3pc", 1), "explored=296145 safe=true nonblocking=true inconsistent=0 blocked=0");
    ( ("explore-guided", 1),
      "runs=16384 coverage=67 corpus=25 violating=74 bugs[recovery:crash site=2 at=6; crash site=1 \
       at=11; crash site=3 at=7; recover site=2 at=20; msg nth=3 fault=delay:7 | recovery:crash \
       site=2 at=7; crash site=1 at=11; crash site=3 at=7; recover site=2 at=20; msg nth=3 \
       fault=delay:7 | recovery:crash site=2 at=6; crash site=1 at=11; msg nth=3 fault=delay:7; \
       storm site=3 first=10 waves=1 period=71.057685455966265 down=38.605140903595775 | \
       recovery:step-crash site=3 step=0 mode=after-logging:2; step-crash site=1 step=1 \
       mode=before; crash site=2 at=6; recover site=3 at=35]" );
    ( ("chaos-oracle", 50),
      "violations{} cx[] runs=100 faults=100/265 \
       false_suspicions=0,elections_started=0,elections=51,epoch_rejected_directives=0" );
    ( ("chaos-detector", 50),
      "violations{} cx[] runs=2 faults=2/6 \
       false_suspicions=2,elections_started=0,elections=2,epoch_rejected_directives=0" );
    (("kv-mixed", 50), "committed=40 aborted=0 pending=0 p50=8.73224 p99=25.1075 msgs=546 forces=433");
    ( ("kv-chaos", 50),
      "violations{} failing[] chaos_runs=20,messages_sent=1514,wal_forces=1438,crashes=18,recoveries=9" );
    (("check-3pc", 50), "explored=15784 safe=true nonblocking=true inconsistent=0 blocked=0");
    (("explore-guided", 50), "runs=327 coverage=61 corpus=20 violating=0 bugs[]");
  ]

let lookup ~workload ~scale = List.assoc_opt (workload, scale) digests
