# Asserts the placement-engine determinism contract end-to-end:
#   1. --placement-incremental stdout is byte-identical to the default
#      full-rebuild path (the delta engine's chunk reuse and parallel
#      solves never change output bytes),
#   2. engine-mode stdout is byte-identical across --jobs (the
#      dedicated placement pool must not perturb tuning decisions),
#   3. an --auto-cplx run restored from any mid-run snapshot continues
#      byte-identically (the tuner's surrogate weights, error EWMA, and
#      epoch accumulators ride in the v5 "tuner" section),
#   4. a tuning snapshot replayed under a different seed policy keeps
#      tuning (the report prints policy "auto-cplx" either way), and
#   5. snapshots written under the engine axes refuse to restore into
#      runs without them (config fingerprint mismatch), naming the
#      offending axis.
# Invoked from bench/CMakeLists.txt; -DSEDOV names the sedov_sim binary,
# -DWORK_DIR a scratch directory for checkpoint files.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Incremental placement must be invisible in the output bytes.
execute_process(COMMAND "${SEDOV}" cpl50,cpl25,cpl100 32 24
                OUTPUT_VARIABLE out_full RESULT_VARIABLE rc_full)
execute_process(COMMAND "${SEDOV}" cpl50,cpl25,cpl100 32 24
                        --placement-incremental
                OUTPUT_VARIABLE out_inc RESULT_VARIABLE rc_inc)
if(NOT rc_full EQUAL 0)
  message(FATAL_ERROR "full-rebuild run failed (exit ${rc_full})")
endif()
if(NOT rc_inc EQUAL 0)
  message(FATAL_ERROR "--placement-incremental run failed (exit ${rc_inc})")
endif()
if(NOT out_full STREQUAL out_inc)
  message(FATAL_ERROR "stdout differs between the full-rebuild and "
                      "--placement-incremental runs: the delta placement "
                      "engine is not byte-identical to the reference")
endif()

# Auto-X tuning across the sweep runtime: --jobs must not perturb it.
set(mode --auto-cplx --placement-incremental --faults=2)
execute_process(
  COMMAND "${SEDOV}" cpl50,cpl50 32 24 ${mode} --jobs=1
  OUTPUT_VARIABLE out_j1 RESULT_VARIABLE rc1)
execute_process(
  COMMAND "${SEDOV}" cpl50,cpl50 32 24 ${mode} --jobs=2
  OUTPUT_VARIABLE out_j2 RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "auto-cplx sweep runs failed (exit ${rc1} / ${rc2})")
endif()
if(NOT out_j1 STREQUAL out_j2)
  message(FATAL_ERROR "stdout differs between --jobs=1 and --jobs=2 "
                      "under --auto-cplx: tuning decisions are not "
                      "deterministic across the sweep runtime")
endif()

# Auto-X across checkpoint/restore, with a fault window so the measured
# step times — and thus the tuner's error signal — actually move.
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${mode}
  OUTPUT_VARIABLE out_auto RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted auto-cplx run failed (exit ${rc})")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${mode}
          --checkpoint-every=7 --checkpoint-dir=${WORK_DIR}
  OUTPUT_VARIABLE out_ck RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing auto-cplx run failed (exit ${rc})")
endif()
if(NOT out_auto STREQUAL out_ck)
  message(FATAL_ERROR "writing checkpoints changed auto-cplx stdout")
endif()

file(GLOB snapshots "${WORK_DIR}/ckpt_*.amrs")
if(snapshots STREQUAL "")
  message(FATAL_ERROR "checkpointing run wrote no snapshots")
endif()
foreach(snapshot IN LISTS snapshots)
  execute_process(
    COMMAND "${SEDOV}" cpl50 32 24 ${mode} --restore=${snapshot}
    OUTPUT_VARIABLE out_restored RESULT_VARIABLE rc
    ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "restore from ${snapshot} failed (exit ${rc})")
  endif()
  if(NOT out_auto STREQUAL out_restored)
    message(FATAL_ERROR "stdout differs between the uninterrupted "
                        "auto-cplx run and the run restored from "
                        "${snapshot}: the tuner-state round-trip is "
                        "broken")
  endif()
endforeach()

# Replay with a swapped seed policy: auto-X owns placement from the
# first redistribution on, so the replayed run must keep tuning (and
# keep printing policy "auto-cplx") regardless of the seed policy named
# on the command line.
list(GET snapshots 0 snapshot)
execute_process(
  COMMAND "${SEDOV}" cpl25 32 24 ${mode} --replay=${snapshot}
  OUTPUT_VARIABLE out_replay RESULT_VARIABLE rc
  ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "auto-cplx replay with a swapped seed policy "
                      "failed (exit ${rc})")
endif()
if(NOT out_replay MATCHES "auto-cplx")
  message(FATAL_ERROR "replayed auto-cplx run does not report policy "
                      "auto-cplx")
endif()

# The engine axes are part of the config fingerprint: dropping any of
# them must refuse the restore, naming the mismatched axis.
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --placement-incremental --faults=2
          --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring an auto-cplx snapshot without "
                      "--auto-cplx unexpectedly succeeded")
endif()
if(NOT err MATCHES "auto-X tuning")
  message(FATAL_ERROR "mismatched-tuning restore failed without naming "
                      "auto-X tuning: ${err}")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --auto-cplx --faults=2
          --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring an incremental-placement snapshot "
                      "without --placement-incremental unexpectedly "
                      "succeeded")
endif()
if(NOT err MATCHES "incremental placement")
  message(FATAL_ERROR "mismatched-incremental restore failed without "
                      "naming incremental placement: ${err}")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${mode} --cplx-budget-ms=5
          --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring under a different --cplx-budget-ms "
                      "unexpectedly succeeded")
endif()
if(NOT err MATCHES "auto-X budget")
  message(FATAL_ERROR "mismatched-budget restore failed without naming "
                      "the auto-X budget: ${err}")
endif()
