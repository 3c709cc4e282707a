# Asserts that --aggregate is a pure second spelling of --comm-adaptive,
# end-to-end: sedov_sim --aggregate must
#   1. produce byte-identical stdout across --jobs, and the same stdout
#      as --comm-adaptive (the sweep runtime must not perturb packed
#      plans or their report),
#   2. continue byte-identically from any mid-run snapshot written under
#      --aggregate with a fault window, restored under --aggregate or
#      under --comm-adaptive (the snapshots are interchangeable), and
#   3. refuse to restore a snapshot into a run without packing (config
#      fingerprint mismatch), because replayed windows would carry
#      different expected counts.
# Invoked from bench/CMakeLists.txt; -DSEDOV names the sedov_sim binary,
# -DWORK_DIR a scratch directory for checkpoint files.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${SEDOV}" cpl50,lpt,baseline 32 24 --aggregate --jobs=1
  OUTPUT_VARIABLE out_j1 RESULT_VARIABLE rc1)
execute_process(
  COMMAND "${SEDOV}" cpl50,lpt,baseline 32 24 --aggregate --jobs=4
  OUTPUT_VARIABLE out_j4 RESULT_VARIABLE rc4)
execute_process(
  COMMAND "${SEDOV}" cpl50,lpt,baseline 32 24 --comm-adaptive --jobs=1
  OUTPUT_VARIABLE out_adaptive RESULT_VARIABLE rca)
if(NOT rc1 EQUAL 0 OR NOT rc4 EQUAL 0 OR NOT rca EQUAL 0)
  message(FATAL_ERROR "--aggregate / --comm-adaptive sweep runs failed "
                      "(exit ${rc1} / ${rc4} / ${rca})")
endif()
if(NOT out_j1 STREQUAL out_j4)
  message(FATAL_ERROR "stdout differs between --jobs=1 and --jobs=4 "
                      "under --aggregate: packed plans are not "
                      "deterministic across the sweep runtime")
endif()
if(NOT out_j1 STREQUAL out_adaptive)
  message(FATAL_ERROR "--aggregate stdout differs from --comm-adaptive "
                      "stdout: the alias is not a pure second spelling")
endif()

execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --aggregate --faults=2
  OUTPUT_VARIABLE out_full RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted --aggregate run failed (exit ${rc})")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --aggregate --faults=2
          --checkpoint-every=7 --checkpoint-dir=${WORK_DIR}
  OUTPUT_VARIABLE out_ck RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing --aggregate run failed (exit ${rc})")
endif()
if(NOT out_full STREQUAL out_ck)
  message(FATAL_ERROR "writing checkpoints changed --aggregate stdout")
endif()

file(GLOB snapshots "${WORK_DIR}/ckpt_*.amrs")
if(snapshots STREQUAL "")
  message(FATAL_ERROR "checkpointing run wrote no snapshots")
endif()
foreach(snapshot IN LISTS snapshots)
  foreach(flag --aggregate --comm-adaptive)
    execute_process(
      COMMAND "${SEDOV}" cpl50 32 24 ${flag} --faults=2
              --restore=${snapshot}
      OUTPUT_VARIABLE out_restored RESULT_VARIABLE rc
      ERROR_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "restore from ${snapshot} under ${flag} "
                          "failed (exit ${rc})")
    endif()
    if(NOT out_full STREQUAL out_restored)
      message(FATAL_ERROR "stdout differs between the uninterrupted "
                          "--aggregate run and the run restored from "
                          "${snapshot} under ${flag}: the aggregation "
                          "determinism contract is broken")
    endif()
  endforeach()
endforeach()

# Packing is part of the config fingerprint: restoring an --aggregate
# snapshot without it must fail with a diagnostic naming the axis.
list(GET snapshots 0 snapshot)
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --faults=2 --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring an --aggregate snapshot without "
                      "--aggregate unexpectedly succeeded")
endif()
if(NOT err MATCHES "adaptive packing")
  message(FATAL_ERROR "mismatched-packing restore failed without "
                      "naming adaptive packing: ${err}")
endif()
