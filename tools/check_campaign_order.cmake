# Report-order regression: runs `vpdift-campaign --jobs 2 --suite table1`
# twice and requires both reports to list results[] by job name in spec
# order (the order `--list` prints), whatever order the jobs finished in.
#
#   cmake -DCAMPAIGN=path/to/vpdift-campaign -DOUT_DIR=dir -P check_campaign_order.cmake

execute_process(COMMAND ${CAMPAIGN} --list --suite table1
                OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list failed (${rc})")
endif()
string(REGEX MATCHALL "\n  [^ \n]+ +fw=" rows "\n${listing}")
set(spec_names "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^\n  ([^ ]+) +fw=$" "\\1" name "${row}")
  list(APPEND spec_names "${name}")
endforeach()
list(LENGTH spec_names n_spec)
if(n_spec EQUAL 0)
  message(FATAL_ERROR "no jobs parsed from --list:\n${listing}")
endif()

foreach(run a b)
  set(report "${OUT_DIR}/campaign_order_${run}.json")
  execute_process(COMMAND ${CAMPAIGN} --quiet --force --jobs 2 --suite table1
                          --out ${report}
                  OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} failed (${rc})")
  endif()
  file(READ ${report} doc)
  string(JSON n LENGTH "${doc}" results)
  if(NOT n EQUAL n_spec)
    message(FATAL_ERROR "run ${run}: ${n} results, spec has ${n_spec} jobs")
  endif()
  set(names "")
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${doc}" results ${i} name)
    list(APPEND names "${name}")
  endforeach()
  if(NOT names STREQUAL spec_names)
    message(FATAL_ERROR "run ${run}: results not in spec order:\n"
                        "  report: ${names}\n  spec:   ${spec_names}")
  endif()
endforeach()
message("OK: both reports list ${n_spec} results in spec order")
