/* Shared declarations between the compiled event core (_cext.c), the
 * compiled coherence fast paths (_chandlers.c) and the compiled
 * request-issue chain (_issue.c).  All translation units are linked into
 * the single repro._core._cext extension module; _cext.c owns module init
 * and calls chandlers_add_types() / issue_add_types() to register the
 * other units' types and module functions. */

#ifndef REPRO_CORE_H
#define REPRO_CORE_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Register DataDeliver/SnoopDeliver/DirDeliver/BashSample and
 * _init_protocol on the extension module.  Returns 0 on success, -1 with an exception set. */
int chandlers_add_types(PyObject *module);

/* Register SequencerStep/MemServe and _init_issue on the extension
 * module.  Returns 0 on success, -1 with an exception set. */
int issue_add_types(PyObject *module);

/* The compiled memory-controller data serve (_issue.c), entered from
 * _chandlers.c's home_serve when the memory is the owner: -1 error, 1
 * delegate to the Python handler (no mutation happened), 0 served. */
int issue_mem_serve(PyObject *serve, PyObject *message, PyObject *entry,
                    int is_getm);

/* Type test for the mem_serve kwarg (_chandlers.c validates it). */
int issue_is_memserve(PyObject *op);

/* Event-core services exported by _cext.c to the other units. */
int core_scheduler_check(PyObject *op);
long long core_scheduler_now(PyObject *scheduler);
int core_push_fast(PyObject *scheduler, long long time, PyObject *callback,
                   PyObject *label, PyObject *arg);

#endif /* REPRO_CORE_H */
