# Exercises fkde-lint's two-pass mode end to end, the way CI uses it:
#
#   pass 1: analyze the helper TU alone and --emit-summaries its
#           serialized TuSummary (must itself be clean);
#   pass 2: analyze the violating TU with --summaries pointing at the
#           bundle from pass 1 — the out-of-TU callee's facts resolve
#           and the allocation hidden behind it inside a kernel body is
#           caught, pinned against cross_tu_violating.expected.
#
# Run via: cmake -DTOOL=... -DFIXTURES=... -DWORKDIR=... -P two_pass_test.cmake

foreach(var TOOL FIXTURES WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "two_pass_test.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Pass 1: summarize the helper TU.
execute_process(
  COMMAND "${TOOL}" "${FIXTURES}/cross_tu_helper.cc"
          --emit-summaries "${WORKDIR}" --expect-clean
  RESULT_VARIABLE pass1)
if(NOT pass1 EQUAL 0)
  message(FATAL_ERROR "pass 1 (summarize helper) failed: ${pass1}")
endif()

# The summary filename is the analyzed path with separators mangled to
# underscores, so it varies with how the fixture dir was spelled; glob.
file(GLOB summary_files "${WORKDIR}/*cross_tu_helper.cc.sum")
if(summary_files STREQUAL "")
  message(FATAL_ERROR "pass 1 emitted no helper summary in ${WORKDIR}")
endif()

# Pass 2: link the bundle while analyzing the violating TU. The pinned
# .expected both requires the cross-TU finding and forbids extras.
execute_process(
  COMMAND "${TOOL}" "${FIXTURES}/cross_tu_violating.cc"
          --summaries "${WORKDIR}"
          --expect "${FIXTURES}/cross_tu_violating.expected"
  RESULT_VARIABLE pass2)
if(NOT pass2 EQUAL 0)
  message(FATAL_ERROR "pass 2 (link summaries) failed: ${pass2}")
endif()

# Control: without the bundle the same TU must be silent — proving the
# finding above really came from cross-TU linking, not TU-local text.
execute_process(
  COMMAND "${TOOL}" "${FIXTURES}/cross_tu_violating.cc" --expect-clean
  RESULT_VARIABLE control)
if(NOT control EQUAL 0)
  message(FATAL_ERROR "control (per-TU run) was not clean: ${control}")
endif()
