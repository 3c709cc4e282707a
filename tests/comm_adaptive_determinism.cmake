# Asserts the adaptive-communication determinism contract end-to-end:
#   1. --comm-adaptive --send-priority stdout is byte-identical across
#      --jobs (the sweep runtime must not perturb adaptive plans or the
#      straggler-priority schedule),
#   2. an --overlap --comm-adaptive --send-priority run restored from
#      any mid-run snapshot continues byte-identically (last_straggler
#      and the packing axes ride in the snapshot),
#   3. snapshots written under the adaptive axes refuse to restore into
#      runs without them (config fingerprint mismatch), naming the
#      offending axis, and
#   4. a BSP --comm-adaptive run with a fault window restored from any
#      mid-run snapshot continues byte-identically.
# The --aggregate spelling of --comm-adaptive is checked by
# aggregate_determinism.cmake.
# Adaptive-off byte-identity to the legacy path is covered by every
# other determinism script, which all run with the new flags off.
# Invoked from bench/CMakeLists.txt; -DSEDOV names the sedov_sim binary,
# -DWORK_DIR a scratch directory for checkpoint files.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${SEDOV}" cpl50,lpt,baseline 32 24 --comm-adaptive
          --send-priority --jobs=1
  OUTPUT_VARIABLE out_j1 RESULT_VARIABLE rc1)
execute_process(
  COMMAND "${SEDOV}" cpl50,lpt,baseline 32 24 --comm-adaptive
          --send-priority --jobs=4
  OUTPUT_VARIABLE out_j4 RESULT_VARIABLE rc4)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "adaptive --jobs=1 run failed (exit ${rc1})")
endif()
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "adaptive --jobs=4 run failed (exit ${rc4})")
endif()
if(NOT out_j1 STREQUAL out_j4)
  message(FATAL_ERROR "stdout differs between --jobs=1 and --jobs=4 "
                      "under --comm-adaptive --send-priority: adaptive "
                      "plans are not deterministic across the sweep "
                      "runtime")
endif()

# Overlap + adaptive + priority across checkpoint/restore, with a fault
# window so the straggler rank actually moves mid-run.
set(mode --overlap --comm-adaptive --send-priority --faults=2)
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${mode}
  OUTPUT_VARIABLE out_full RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted adaptive overlap run failed "
                      "(exit ${rc})")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${mode}
          --checkpoint-every=7 --checkpoint-dir=${WORK_DIR}
  OUTPUT_VARIABLE out_ck RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing adaptive overlap run failed "
                      "(exit ${rc})")
endif()
if(NOT out_full STREQUAL out_ck)
  message(FATAL_ERROR "writing checkpoints changed adaptive overlap "
                      "stdout")
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
  if(NOT out_full STREQUAL out_restored)
    message(FATAL_ERROR "stdout differs between the uninterrupted "
                        "adaptive overlap run and the run restored from "
                        "${snapshot}: the adaptive-comm determinism "
                        "contract is broken")
  endif()
endforeach()

# The adaptive axes are part of the config fingerprint: dropping either
# flag must refuse the restore, naming the mismatched axis.
list(GET snapshots 0 snapshot)
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --overlap --send-priority --faults=2
          --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring an adaptive snapshot without "
                      "--comm-adaptive unexpectedly succeeded")
endif()
if(NOT err MATCHES "adaptive packing")
  message(FATAL_ERROR "mismatched-adaptive restore failed without "
                      "naming adaptive packing: ${err}")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --overlap --comm-adaptive --faults=2
          --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring a send-priority snapshot without "
                      "--send-priority unexpectedly succeeded")
endif()
if(NOT err MATCHES "send priority")
  message(FATAL_ERROR "mismatched-priority restore failed without "
                      "naming send priority: ${err}")
endif()

# BSP + adaptive across checkpoint/restore with a fault window: packed
# transfer counters and fabric packing stats ride in the snapshot.
set(bsp_dir "${WORK_DIR}/bsp")
file(MAKE_DIRECTORY "${bsp_dir}")
set(bsp_mode --comm-adaptive --faults=2)
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${bsp_mode}
  OUTPUT_VARIABLE bsp_full RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted adaptive BSP run failed (exit ${rc})")
endif()
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 ${bsp_mode}
          --checkpoint-every=7 --checkpoint-dir=${bsp_dir}
  OUTPUT_VARIABLE bsp_ck RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing adaptive BSP run failed (exit ${rc})")
endif()
if(NOT bsp_full STREQUAL bsp_ck)
  message(FATAL_ERROR "writing checkpoints changed adaptive BSP stdout")
endif()
file(GLOB bsp_snapshots "${bsp_dir}/ckpt_*.amrs")
if(bsp_snapshots STREQUAL "")
  message(FATAL_ERROR "checkpointing adaptive BSP run wrote no snapshots")
endif()
foreach(snapshot IN LISTS bsp_snapshots)
  execute_process(
    COMMAND "${SEDOV}" cpl50 32 24 ${bsp_mode} --restore=${snapshot}
    OUTPUT_VARIABLE out_restored RESULT_VARIABLE rc
    ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "restore from ${snapshot} failed (exit ${rc})")
  endif()
  if(NOT bsp_full STREQUAL out_restored)
    message(FATAL_ERROR "stdout differs between the uninterrupted "
                        "adaptive BSP run and the run restored from "
                        "${snapshot}: the adaptive-comm determinism "
                        "contract is broken")
  endif()
endforeach()
list(GET bsp_snapshots 0 snapshot)
execute_process(
  COMMAND "${SEDOV}" cpl50 32 24 --faults=2 --restore=${snapshot}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "restoring an adaptive BSP snapshot without "
                      "--comm-adaptive unexpectedly succeeded")
endif()
if(NOT err MATCHES "adaptive packing")
  message(FATAL_ERROR "mismatched-adaptive BSP restore failed without "
                      "naming adaptive packing: ${err}")
endif()

