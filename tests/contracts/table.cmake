# The byte-identity contracts, one row per assertion. driver.cmake reads
# this table twice: at configure time it registers one ctest per group,
# and under `cmake -P` it runs one group's rows in order.
#
# A command is one string whose first word names a binary (amrcplx,
# bench_scalebench, bench_fig1 or bench_comm_adaptive). @DIR@ is the
# row's scratch directory and @DATA@ this directory. Row kinds:
#
#   same     RUN cmd...             every RUN exits 0 with equal stdout;
#            [NO_FILES glob...]     no file in @DIR@ matches a glob after
#   restore  RUN cmd EVERY k        RUN checkpointing every k steps prints
#            [AS cmd...]            RUN's stdout, and so do RUN and each AS
#            [REPLAY cmd text]      restored from every snapshot; REPLAY
#                                   (a what-if: another policy) restored
#                                   from the first snapshot exits 0 and
#                                   prints text
#   refuse   RUN cmd EVERY k        AS restored from RUN's first snapshot
#            AS cmd NAMES text      exits 1 and names the axis on stderr
#   corrupt  RUN cmd EVERY k        snapshot `name` with 8 bytes overwritten
#            SNAPSHOT name          mid-file, and cut mid-file, each fail
#                                   RUN's restore: exit 1, "snapshot" on
#                                   stderr
#   reject   RUN cmd [EXIT n]       exits n (default 2); stderr contains
#            [STDERR text...]       each STDERR text and stdout each
#            [STDOUT text...]       STDOUT text
#   contains RUN cmd PART cmd...    each PART exits 0 and its stdout appears
#            [HEADER text...]       verbatim in RUN's, in order, each after
#                                   its HEADER line
#
# Two classes of knob:
#  - performance knobs must not change a byte: --jobs, quantum,
#    --serve-jobs, --max-resident, restore point and the --aggregate
#    spelling (same, restore and contains rows);
#  - an answer option is its job_fields() row's effect (JobEffect::kAnswer
#    and the fingerprint entry it changes) plus one `expect` line of the
#    meta field list. JobFields.EachRowChangesWhatItDeclares refuses a
#    restore under each one by name, so it takes no hand-written refuse
#    row here; the one refuse row below checks the CLI's exit 1.

# Groups the sanitizer build trees run by label (ctest -L <group>).
set(contract_labeled
  comm_adaptive_determinism serve_determinism placement_tuning_determinism)

set(sedov32 "amrcplx run --ranks=32 --sedov-max-level=1")
set(cpl50 "${sedov32} --policy=cpl50 --steps=24 --faults=2")
set(sweep32 "amrcplx sweep --ranks=32 --steps=24 --sedov-max-level=1")
set(trio "${sweep32} --policy=cpl50,lpt,baseline")
set(serve "amrcplx serve --file=@DATA@/serve_fleet.txt")

# --jobs: a parallel sweep prints the serial sweep's bytes.
contract(sweep_determinism same
  RUN "bench_scalebench --quick --jobs=1"
  RUN "bench_scalebench --quick --jobs=8")

# Restore point, with a fault window; the two step counts put the
# snapshots inside, at the edge of and after the regrids and the window.
contract(checkpoint_determinism restore
  RUN "${sedov32} --policy=cpl50 --steps=24 --faults=2" EVERY 5)
contract(checkpoint_determinism restore
  RUN "${sedov32} --policy=lpt --steps=17 --faults=2" EVERY 7)

# A Sedov parameter is an answer knob, refused at the CLI with exit 1.
# The run has no fault window, so the refusal names the parameter, not
# the window's step-bound edges.
contract(checkpoint_determinism refuse
  RUN "amrcplx run --ranks=32 --policy=cpl50 --steps=24" EVERY 8
  AS "amrcplx run --ranks=32 --policy=cpl50 --steps=24 --sedov-max-level=2"
  NAMES "sedov.max_level")

contract(checkpoint_corruption corrupt
  RUN "${sedov32} --policy=cpl50 --steps=12 --faults=1" EVERY 6
  SNAPSHOT ckpt_6.amrs)

# A checkpoint that cannot be written fails the run, naming the file.
set(unwritable "--checkpoint-every=6 --checkpoint-dir=@DIR@/nonexist")
contract(cli_rejects_unwritable_checkpoint reject
  RUN "amrcplx run --ranks=32 --steps=12 ${unwritable}"
  EXIT 1 STDERR "nonexist")

# --aggregate is a second spelling of --comm-adaptive: across --jobs,
# and its snapshots restore under either spelling.
contract(aggregate_determinism same
  RUN "${trio} --aggregate --jobs=1"
  RUN "${trio} --aggregate --jobs=4"
  RUN "${trio} --comm-adaptive --jobs=1")
contract(aggregate_determinism restore
  RUN "${cpl50} --aggregate" EVERY 7 AS "${cpl50} --comm-adaptive")

# Adaptive packing and send priority: across --jobs and overlap and BSP
# restores. The bench's five modes print the same bytes run to run.
contract(comm_adaptive_determinism same
  RUN "${trio} --comm-adaptive --send-priority --jobs=1"
  RUN "${trio} --comm-adaptive --send-priority --jobs=4")
set(adaptive "${cpl50} --execution=overlap --comm-adaptive --send-priority")
contract(comm_adaptive_determinism restore RUN "${adaptive}" EVERY 7)
contract(comm_adaptive_determinism restore
  RUN "${cpl50} --comm-adaptive" EVERY 7)
contract(comm_adaptive_determinism same
  RUN "bench_comm_adaptive --quick"
  RUN "bench_comm_adaptive --quick")

# Auto-X tuning holds across --jobs and restores, and keeps tuning when
# restored under another seed policy.
set(tuned "--auto-cplx --faults=2")
contract(placement_tuning_determinism same
  RUN "${sweep32} --policy=cpl50,cpl50 ${tuned} --jobs=1"
  RUN "${sweep32} --policy=cpl50,cpl50 ${tuned} --jobs=2")
set(auto "${cpl50} --auto-cplx")
contract(placement_tuning_determinism restore
  RUN "${auto}" EVERY 7
  REPLAY "${sedov32} --policy=cpl25 --steps=24 ${tuned}" "policy auto-cplx:")

# Serve: quantum, --serve-jobs and eviction (--max-resident=0) leave a
# fleet's bytes alone, eviction spills do not outlive their jobs, each
# job block is the standalone `amrcplx run` stdout, and a bad job line
# is reported while the good jobs still run. Plan sharing is always on;
# QuantumScheduler.PlanSharingDoesNotChangeOutput holds it to the
# unshared bytes.
contract(serve_determinism same
  RUN "${serve} --quantum-steps=1000000"
  RUN "${serve} --quantum-steps=3 --serve-jobs=4"
  RUN "${serve} --quantum-steps=2 --serve-jobs=2 --max-resident=0 --spill-dir=@DIR@"
  NO_FILES "serve_spill_*.amrs")
contract(serve_determinism contains
  RUN "${serve} --quantum-steps=1000000"
  HEADER "== job 0 ==" PART "amrcplx run --policy=cpl50 --ranks=64 --steps=10"
  HEADER "== job 2 =="
  PART "amrcplx run --policy=cpl50 --ranks=64 --steps=10 --faults=1")
contract(serve_determinism reject
  RUN "amrcplx serve --file=@DATA@/serve_bad.txt --quantum-steps=1000000"
  EXIT 1 STDOUT "unknown field" "== job 0 ==")

# A sweep's policy list prints each policy's `amrcplx run` stdout.
contract(sweep_policy_list contains
  RUN "${sweep32} --policy=cpl50,lpt"
  PART "${sedov32} --steps=24 --policy=cpl50"
  PART "${sedov32} --steps=24 --policy=lpt")

# A strict frontend names bad input instead of running a default job.
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx run --comm-adaptiv" STDERR "unrecognized flag --comm-adaptiv")
contract(cli_rejects_bad_choice reject
  RUN "amrcplx run --execution=overlapp"
  STDERR "--execution must be \"bsp\" or \"overlap\"")
contract(cli_rejects_invalid_job reject
  RUN "amrcplx run --ranks=24" STDERR "ranks must be a power of two")
contract(cli_rejects_sweep_policy reject
  RUN "amrcplx sweep --restore=x.amrs" STDERR "--restore names a single run")
contract(cli_rejects_removed_des_shards reject
  RUN "amrcplx run --des-shards=2" STDERR "unrecognized flag --des-shards")
# A removed flag fails loudly instead of running a default job.
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx run --placement-incremental"
  STDERR "unrecognized flag --placement-incremental")
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx run --pack-threshold=0"
  STDERR "unrecognized flag --pack-threshold")
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx run --auto-cplx --cplx-budget-ms=5"
  STDERR "unrecognized flag --cplx-budget-ms")
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx serve --no-share" STDERR "unrecognized flag --no-share")
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx run --replay=x.amrs" STDERR "unrecognized flag --replay")
contract(cli_rejects_unknown_flag reject
  RUN "amrcplx run --overlap" STDERR "unrecognized flag --overlap")
contract(cli_rejects_positional reject
  RUN "amrcplx run lpt 512 60" STDERR "unexpected argument 'lpt'")
contract(cli_rejects_positional reject
  RUN "amrcplx mesh junk" STDERR "unexpected argument 'junk'")
contract(cli_rejects_out_of_range reject
  RUN "amrcplx serve --file=/dev/null --serve-jobs=4294967297"
  STDERR "--serve-jobs: '4294967297'")
contract(cli_rejects_out_of_range reject
  RUN "amrcplx serve --file=/dev/null --serve-jobs=0"
  STDERR "--serve-jobs: '0'")
contract(cli_rejects_out_of_range reject
  RUN "amrcplx sweep --jobs=4294967297" STDERR "--jobs: '4294967297'")
contract(cli_rejects_out_of_range reject
  RUN "amrcplx mesh --ranks=0" STDERR "--ranks: '0'")
# Worker counts stop at Flags::kMaxWorkers, before any thread starts.
contract(cli_rejects_out_of_range reject
  RUN "amrcplx sweep --jobs=100000" STDERR "--jobs: '100000'")
contract(cli_rejects_out_of_range reject
  RUN "amrcplx serve --file=/dev/null --serve-jobs=100000"
  STDERR "--serve-jobs: '100000'")
contract(cli_rejects_out_of_range reject
  RUN "bench_fig1 --ranks=4294967297" STDERR "--ranks: '4294967297'")
contract(cli_rejects_sweep_policy_list reject
  RUN "amrcplx sweep --policy=cpl50,nope" STDERR "--policy names 'nope'")
contract(cli_rejects_sweep_policy_list reject
  RUN "amrcplx sweep --policy=cpl50,,lpt" STDERR "--policy names an empty name")
