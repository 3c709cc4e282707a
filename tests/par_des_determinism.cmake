# Asserts the sharded-DES determinism contract end-to-end: sedov_sim
# stdout must be byte-identical for every --des-shards value >= 1 —
# shard count is a pure performance knob, never an answer knob — with
# fault injection and message packing active:
#   1. --des-shards=1 / 2 / 8 produce identical stdout (8 clamps to the
#      node count, exercising the clamp path too),
#   2. a sharded run restored from a snapshot written under a DIFFERENT
#      shard count continues byte-identically (the snapshot records the
#      sharded bool, not the count; all sharded state is node-indexed),
#   3. a sharded snapshot must refuse to restore into a sequential run
#      (config fingerprint mismatch: the two modes draw different fabric
#      jitter and are not comparable).
# Runs under every AMR_SANITIZE build tree; the thread-sanitizer tree is
# the one that would catch a cross-shard data race. Invoked from
# bench/CMakeLists.txt; -DSEDOV names the sedov_sim binary, -DWORK_DIR a
# scratch directory for checkpoint files.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# 64 ranks / 16 per node = 4 nodes, so 1, 2, and 8(->4) shards genuinely
# partition the queue differently.
set(args cpl50 64 24 --faults=2 --comm-adaptive)

execute_process(
  COMMAND "${SEDOV}" ${args} --des-shards=1
  OUTPUT_VARIABLE out_s1 RESULT_VARIABLE rc1)
execute_process(
  COMMAND "${SEDOV}" ${args} --des-shards=2
  OUTPUT_VARIABLE out_s2 RESULT_VARIABLE rc2)
execute_process(
  COMMAND "${SEDOV}" ${args} --des-shards=8
  OUTPUT_VARIABLE out_s8 RESULT_VARIABLE rc8)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "--des-shards=1 run failed (exit ${rc1})")
endif()
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "--des-shards=2 run failed (exit ${rc2})")
endif()
if(NOT rc8 EQUAL 0)
  message(FATAL_ERROR "--des-shards=8 run failed (exit ${rc8})")
endif()
if(NOT out_s1 STREQUAL out_s2)
  message(FATAL_ERROR "stdout differs between --des-shards=1 and "
                      "--des-shards=2: shard partitioning changed the "
                      "simulated answer")
endif()
if(NOT out_s1 STREQUAL out_s8)
  message(FATAL_ERROR "stdout differs between --des-shards=1 and "
                      "--des-shards=8: shard partitioning changed the "
                      "simulated answer")
endif()

# Checkpoint under 2 shards, restore under 1 and 8: the uninterrupted
# single-shard output is the reference for all of them.
execute_process(
  COMMAND "${SEDOV}" ${args} --des-shards=2
          --checkpoint-every=7 --checkpoint-dir=${WORK_DIR}
  OUTPUT_VARIABLE out_ck RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing sharded run failed (exit ${rc})")
endif()
if(NOT out_s1 STREQUAL out_ck)
  message(FATAL_ERROR "writing checkpoints changed sharded stdout")
endif()

file(GLOB snapshots "${WORK_DIR}/ckpt_*.amrs")
if(snapshots STREQUAL "")
  message(FATAL_ERROR "checkpointing sharded run wrote no snapshots")
endif()
foreach(snapshot IN LISTS snapshots)
  foreach(shards 1 8)
    execute_process(
      COMMAND "${SEDOV}" ${args} --des-shards=${shards}
              --restore=${snapshot}
      OUTPUT_VARIABLE out_restored RESULT_VARIABLE rc
      ERROR_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "restore from ${snapshot} under "
                          "--des-shards=${shards} failed (exit ${rc})")
    endif()
    if(NOT out_s1 STREQUAL out_restored)
      message(FATAL_ERROR "stdout differs between the uninterrupted "
                          "sharded run and the run restored from "
                          "${snapshot} under --des-shards=${shards}: "
                          "the sharded determinism contract is broken")
    endif()
  endforeach()
endforeach()

# Sharded-vs-sequential is a fingerprint axis: restoring a sharded
# snapshot without --des-shards must fail with a diagnostic.
list(GET snapshots 0 snapshot)
execute_process(
  COMMAND "${SEDOV}" ${args} --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring a sharded snapshot without "
                      "--des-shards unexpectedly succeeded")
endif()
if(NOT err MATCHES "sharded")
  message(FATAL_ERROR "mismatched-sharding restore failed without "
                      "naming the sharded mode: ${err}")
endif()
