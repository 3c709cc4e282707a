# Runs the contract table (table.cmake in this directory).
#
# Included from the top-level CMakeLists.txt, it registers one ctest per
# group of rows, named after the group. Run as
#
#   cmake -DGROUP=<group> -DWORK_DIR=<dir> -DBIN_<name>=<path>... -P driver.cmake
#
# it runs each of that group's rows in order, in a process of its own
# (the same script with -DROW=<n>), so a broken row stops only itself,
# and fails naming every broken row. Snapshots of one (RUN, EVERY) pair
# are written once per group.

if(NOT CMAKE_SCRIPT_MODE_FILE)
  # Configure time: collect the groups and the binaries each one runs.
  function(contract group)
    set(groups ${contract_groups})
    if(NOT group IN_LIST groups)
      list(APPEND groups ${group})
      set(contract_groups ${groups} PARENT_SCOPE)
    endif()
    set(used ${contract_uses_${group}})
    foreach(arg IN LISTS ARGN)
      string(REGEX MATCH "^[a-z_0-9]+ " bin "${arg}")
      string(STRIP "${bin}" bin)
      if(bin IN_LIST contract_bins AND NOT bin IN_LIST used)
        list(APPEND used ${bin})
      endif()
    endforeach()
    set(contract_uses_${group} ${used} PARENT_SCOPE)
  endfunction()

  # A function scope keeps the table's variables out of the caller's.
  function(contract_register dir)
    # Binary names the table uses, and the targets that build them.
    set(contract_bins amrcplx bench_scalebench bench_fig1 bench_comm_adaptive)
    set(contract_targets
      amrcplx_cli bench_scalebench bench_fig1 bench_comm_adaptive)
    set(contract_groups "")
    include(${dir}/table.cmake)
    foreach(group IN LISTS contract_groups)
      set(defs "")
      set(buildable TRUE)
      foreach(bin IN LISTS contract_uses_${group})
        list(FIND contract_bins ${bin} at)
        list(GET contract_targets ${at} target)
        if(NOT TARGET ${target})
          set(buildable FALSE)
        endif()
        list(APPEND defs -DBIN_${bin}=$<TARGET_FILE:${target}>)
      endforeach()
      if(NOT buildable)
        continue()
      endif()
      add_test(NAME ${group}
        COMMAND ${CMAKE_COMMAND} -DGROUP=${group} ${defs}
                -DWORK_DIR=${CMAKE_BINARY_DIR}/contracts/${group}
                -P ${dir}/driver.cmake)
      if(group IN_LIST contract_labeled)
        set_tests_properties(${group} PROPERTIES LABELS ${group})
      endif()
    endforeach()
  endfunction()
  contract_register(${CMAKE_CURRENT_LIST_DIR})
  return()
endif()

# ------------------------------------------------------------ run time

cmake_policy(VERSION 3.16)
set(contract_row 0)

if(NOT DEFINED ROW)
  # The group: count its rows, run each in its own process and report
  # every one that fails.
  file(REMOVE_RECURSE "${WORK_DIR}")
  file(MAKE_DIRECTORY "${WORK_DIR}")
  function(contract group)
    if(group STREQUAL GROUP)
      math(EXPR row "${contract_row} + 1")
      set(contract_row ${row} PARENT_SCOPE)
    endif()
  endfunction()
  include(${CMAKE_CURRENT_LIST_DIR}/table.cmake)
  if(contract_row EQUAL 0)
    message(FATAL_ERROR "no contract rows in group ${GROUP}")
  endif()
  set(defs "")
  get_cmake_property(vars VARIABLES)
  foreach(var IN LISTS vars)
    if(var MATCHES "^BIN_")
      list(APPEND defs "-D${var}=${${var}}")
    endif()
  endforeach()
  set(failed "")
  foreach(row RANGE 1 ${contract_row})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -DGROUP=${GROUP} -DROW=${row}
              -DWORK_DIR=${WORK_DIR} ${defs} -P ${CMAKE_CURRENT_LIST_FILE}
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      list(APPEND failed ${row})
      message("${err}")
    endif()
  endforeach()
  if(NOT failed STREQUAL "")
    list(LENGTH failed n)
    string(REPLACE ";" ", " failed "${failed}")
    message(FATAL_ERROR
      "${GROUP}: ${n} of ${contract_row} rows failed: ${failed}")
  endif()
  return()
endif()

function(contract_fail what)
  message(FATAL_ERROR "${GROUP} row ${contract_row} (${contract_kind}): "
                      "${what}")
endfunction()

# Run one command string; sets out, err and rc in the caller.
function(contract_exec cmd)
  separate_arguments(args UNIX_COMMAND "${cmd}")
  list(POP_FRONT args bin)
  if(NOT DEFINED BIN_${bin})
    contract_fail("`${cmd}` names no known binary")
  endif()
  list(TRANSFORM args REPLACE "@DIR@" "${contract_dir}")
  list(TRANSFORM args REPLACE "@DATA@" "${CMAKE_CURRENT_LIST_DIR}")
  execute_process(COMMAND "${BIN_${bin}}" ${args}
    OUTPUT_VARIABLE o ERROR_VARIABLE e RESULT_VARIABLE r)
  set(out "${o}" PARENT_SCOPE)
  set(err "${e}" PARENT_SCOPE)
  set(rc "${r}" PARENT_SCOPE)
endfunction()

# Run a command that must exit 0; sets out in the caller.
function(contract_ok cmd)
  contract_exec("${cmd}")
  if(NOT rc EQUAL 0)
    contract_fail("`${cmd}` exited ${rc}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# The snapshots of `run` checkpointing every `every` steps; sets
# snapshots (sorted paths), ck_dir (their directory) and ck_out (that
# run's stdout) in the caller.
function(contract_snapshots run every)
  string(MD5 key "${run} ${every}")
  set(dir "${WORK_DIR}/ckpt_${key}")
  if(NOT EXISTS "${dir}")
    file(MAKE_DIRECTORY "${dir}")
    contract_ok("${run} --checkpoint-every=${every} --checkpoint-dir=${dir}")
    file(WRITE "${dir}/stdout.txt" "${out}")
  endif()
  file(READ "${dir}/stdout.txt" ck_out)
  file(GLOB found "${dir}/ckpt_*.amrs")
  if(found STREQUAL "")
    contract_fail("`${run}` checkpointing every ${every} wrote no snapshots")
  endif()
  set(snapshots "${found}" PARENT_SCOPE)
  set(ck_dir "${dir}" PARENT_SCOPE)
  set(ck_out "${ck_out}" PARENT_SCOPE)
endfunction()

# A restore of `file` under `cmd` must exit 1 with `text` on stderr.
function(contract_refused cmd file text)
  contract_exec("${cmd} --restore=${file}")
  if(NOT rc EQUAL 1)
    contract_fail("`${cmd}` restoring ${file} exited ${rc}, expected 1")
  endif()
  string(FIND "${err}" "${text}" at)
  if(at EQUAL -1)
    contract_fail("`${cmd}` restoring ${file}: stderr lacks \"${text}\":\n"
                  "${err}")
  endif()
endfunction()

function(contract group kind)
  if(NOT group STREQUAL GROUP)
    return()
  endif()
  math(EXPR row "${contract_row} + 1")
  set(contract_row ${row} PARENT_SCOPE)
  if(NOT row EQUAL ROW)
    return()
  endif()
  set(contract_row ${row})
  set(contract_kind ${kind})
  set(contract_dir "${WORK_DIR}/row${row}")
  file(MAKE_DIRECTORY "${contract_dir}")
  cmake_parse_arguments(PARSE_ARGV 2 c "" "EVERY;EXIT;SNAPSHOT"
    "RUN;AS;REPLAY;NAMES;NO_FILES;STDERR;STDOUT;PART;HEADER")

  if(kind STREQUAL "same")
    list(POP_FRONT c_RUN first)
    contract_ok("${first}")
    set(want "${out}")
    foreach(cmd IN LISTS c_RUN)
      contract_ok("${cmd}")
      if(NOT out STREQUAL want)
        contract_fail("`${cmd}` stdout differs from `${first}`")
      endif()
    endforeach()
    foreach(pattern IN LISTS c_NO_FILES)
      file(GLOB left "${contract_dir}/${pattern}")
      if(NOT left STREQUAL "")
        contract_fail("files left behind: ${left}")
      endif()
    endforeach()

  elseif(kind STREQUAL "restore")
    contract_ok("${c_RUN}")
    set(want "${out}")
    contract_snapshots("${c_RUN}" ${c_EVERY})
    if(NOT ck_out STREQUAL want)
      contract_fail("writing checkpoints changed `${c_RUN}` stdout")
    endif()
    foreach(snapshot IN LISTS snapshots)
      foreach(cmd IN LISTS c_RUN c_AS)
        contract_ok("${cmd} --restore=${snapshot}")
        if(NOT out STREQUAL want)
          contract_fail("`${cmd}` restored from ${snapshot} differs from "
                        "the uninterrupted run")
        endif()
      endforeach()
    endforeach()
    if(c_REPLAY)
      list(GET c_REPLAY 0 cmd)
      list(GET c_REPLAY 1 text)
      list(GET snapshots 0 snapshot)
      contract_ok("${cmd} --restore=${snapshot}")
      string(FIND "${out}" "${text}" at)
      if(at EQUAL -1)
        contract_fail("`${cmd}` restoring ${snapshot} does not print "
                      "\"${text}\"")
      endif()
    endif()

  elseif(kind STREQUAL "refuse")
    contract_snapshots("${c_RUN}" ${c_EVERY})
    list(GET snapshots 0 snapshot)
    contract_refused("${c_AS}" "${snapshot}" "${c_NAMES}")

  elseif(kind STREQUAL "corrupt")
    contract_snapshots("${c_RUN}" ${c_EVERY})
    set(snapshot "${ck_dir}/${c_SNAPSHOT}")
    if(NOT EXISTS "${snapshot}")
      contract_fail("expected snapshot ${snapshot} was not written")
    endif()
    # Overwrite 8 bytes mid-payload with a pattern the snapshot does not
    # hold there (a checksum mismatch), and cut the file there (a bounds
    # check).
    file(SIZE "${snapshot}" size)
    math(EXPR mid "${size} / 2")
    set(flipped "${contract_dir}/flipped.amrs")
    set(truncated "${contract_dir}/truncated.amrs")
    configure_file("${snapshot}" "${flipped}" COPYONLY)
    file(WRITE "${contract_dir}/pattern.bin" "CORRUPT!")
    execute_process(
      COMMAND dd if=${contract_dir}/pattern.bin of=${flipped} bs=1
              seek=${mid} count=8 conv=notrunc
      RESULT_VARIABLE rc_flip OUTPUT_QUIET ERROR_QUIET)
    execute_process(
      COMMAND dd if=${snapshot} of=${truncated} bs=1 count=${mid}
      RESULT_VARIABLE rc_cut OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc_flip EQUAL 0 OR NOT rc_cut EQUAL 0)
      contract_fail("dd failed (exit ${rc_flip} / ${rc_cut})")
    endif()
    contract_refused("${c_RUN}" "${flipped}" "snapshot")
    contract_refused("${c_RUN}" "${truncated}" "snapshot")

  elseif(kind STREQUAL "reject")
    if(NOT DEFINED c_EXIT)
      set(c_EXIT 2)
    endif()
    contract_exec("${c_RUN}")
    if(NOT rc EQUAL c_EXIT)
      contract_fail("`${c_RUN}` exited ${rc}, expected ${c_EXIT}\n"
                    "${out}${err}")
    endif()
    foreach(text IN LISTS c_STDERR)
      string(FIND "${err}" "${text}" at)
      if(at EQUAL -1)
        contract_fail("`${c_RUN}` stderr lacks \"${text}\":\n${err}")
      endif()
    endforeach()
    foreach(text IN LISTS c_STDOUT)
      string(FIND "${out}" "${text}" at)
      if(at EQUAL -1)
        contract_fail("`${c_RUN}` stdout lacks \"${text}\":\n${out}")
      endif()
    endforeach()

  elseif(kind STREQUAL "contains")
    contract_ok("${c_RUN}")
    set(whole "${out}")
    set(i 0)
    foreach(part IN LISTS c_PART)
      contract_ok("${part}")
      if(c_HEADER)
        list(GET c_HEADER ${i} header)
        set(out "${header}\n${out}")
      endif()
      string(FIND "${whole}" "${out}" at)
      if(at EQUAL -1)
        contract_fail("`${c_RUN}` stdout lacks `${part}` stdout, in order")
      endif()
      string(LENGTH "${out}" n)
      math(EXPR at "${at} + ${n}")
      string(SUBSTRING "${whole}" ${at} -1 whole)
      math(EXPR i "${i} + 1")
    endforeach()

  else()
    contract_fail("unknown row kind")
  endif()
endfunction()

include(${CMAKE_CURRENT_LIST_DIR}/table.cmake)
