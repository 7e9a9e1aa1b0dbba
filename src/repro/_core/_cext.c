/* Compiled event core for repro: the bucket-queue scheduler and the
 * interconnect's per-hop pipeline, as a dependency-free CPython extension.
 *
 * Contract: bit-identical observable behaviour with the pure-Python
 * reference implementation in repro/sim/scheduler.py and the compiled
 * closures in repro/interconnect/ (link_push in link.py, the per-hop
 * pipelines in {ordered,unordered}_network.py).  The
 * golden-trace, reset-equivalence, figure-snapshot and differential
 * verification suites run against both backends; any divergence is a bug
 * here, not there.
 *
 * The C SchedulerBase keeps the *same data layout* as the pure class —
 * `_buckets` is a real dict of time -> FIFO list of tuples, `_times` a real
 * list managed as a heap, counters exposed as integer members — because the
 * pure network closures push entries into those containers directly and must
 * keep working unchanged against a compiled scheduler.  Every queue entry is
 * a (time, seq, callback, label) or (time, seq, callback, label, arg) tuple;
 * events cannot be cancelled.  Only the hot methods (the two relative
 * schedule calls and run) are implemented in C; the cold ones (drain/reset/
 * fire hooks) are reused verbatim from the pure class by the Python subclass
 * built in repro/sim/scheduler.py.
 *
 * The per-hop objects cover a message's whole path on a compiled scheduler:
 * UnorderedSend and OrderedSend (the two networks' send methods: source
 * link and injection push), SwitchEnter (ordering point and fan-out), Relay
 * (unordered traversal), UnorderedArrive (unordered delivery lookup) and
 * LinkPush (endpoint-link occupancy and the delivery push).  Like every
 * object the scheduler fires, they are called through vectorcall, and they
 * read Message and EndpointLink fields straight from the classes' slots
 * (the helpers in _core.h).  LinkPush keeps the pure closure it mirrors
 * for any message or link state it does not handle, and the sends call
 * the network's Python send method for any shape they do not; SwitchEnter
 * and UnorderedArrive use the networks' attributes generically and call
 * back into Python only to resolve a memo miss.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include "_core.h"

#define CORE_VERSION "1.9.0"

/* Class injected by repro.sim.scheduler via _init_classes(). */
static PyObject *SimulationErrorClass = NULL;

/* Interned attribute names (module-lifetime). */
static PyObject *str_occupancy_cycles;
static PyObject *str__occupancy_cache;
static PyObject *str__order_sequence;
static PyObject *str_traversal_cycles;
static PyObject *str__fanout_memo;
static PyObject *str__fanout;
static PyObject *str__deliver_entries;
static PyObject *str__compile_delivery;
static PyObject *str__compile_injection;
static PyObject *str_links;
static PyObject *str__messages_counter;
static PyObject *str__inject_entries;
static PyObject *str__node_ids;
static PyObject *str__inject_labels;
static PyObject *str__enter_switch_callback;
static PyObject *str__broadcasts_counter;
static PyObject *str__multicasts_counter;
static PyObject *str_send;
static PyObject *str_outgoing;
static PyObject *str_broadcast_cost_factor;
static PyObject *str__count;
static PyObject *str___init__;
static PyObject *empty_string;
static PyObject *int_one;
static PyObject *float_one;

/* ------------------------------------------------------------------ helpers */

/* Exception save/restore across the run() error epilogue (the bucket-restore
 * bookkeeping must not clobber the propagating exception). */
#if PY_VERSION_HEX >= 0x030C0000
typedef PyObject *saved_exc_t;
static inline saved_exc_t
save_exception(void)
{
    return PyErr_GetRaisedException();
}
static inline void
restore_exception(saved_exc_t saved)
{
    PyErr_SetRaisedException(saved);
}
#else
typedef struct {
    PyObject *type, *value, *tb;
} saved_exc_t;
static inline saved_exc_t
save_exception(void)
{
    saved_exc_t saved;
    PyErr_Fetch(&saved.type, &saved.value, &saved.tb);
    return saved;
}
static inline void
restore_exception(saved_exc_t saved)
{
    PyErr_Restore(saved.type, saved.value, saved.tb);
}
#endif

/* Min-heap of Python ints stored in a plain list, compatible with the heapq
 * pushes the pure network closures perform on the same list.  Comparison via
 * PyObject_RichCompareBool keeps arbitrary orderable keys working, though in
 * practice every key is an int. */

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int lt = PyObject_RichCompareBool(newitem, parent, Py_LT);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(parent);
        PyObject *old = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, parent);
        Py_DECREF(old);
        pos = parentpos;
    }
    PyObject *old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, newitem);
    Py_DECREF(old);
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int lt = PyObject_RichCompareBool(PyList_GET_ITEM(heap, childpos),
                                              PyList_GET_ITEM(heap, rightpos),
                                              Py_LT);
            if (lt < 0) {
                Py_DECREF(newitem);
                return -1;
            }
            if (!lt)
                childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        PyObject *old = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, child);
        Py_DECREF(old);
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyObject *old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, newitem);
    Py_DECREF(old);
    return heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Pop the smallest item; returns a new reference, NULL on error. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *smallest = PyList_GET_ITEM(heap, 0);
    Py_INCREF(smallest);
    PyObject *old = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    Py_DECREF(old);
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(smallest);
        return NULL;
    }
    return smallest;
}

/* --------------------------------------------------------- SchedulerBase */

typedef struct {
    PyObject_HEAD
    PyObject *buckets;           /* dict: time -> FIFO list of entry tuples */
    PyObject *times;             /* list managed as a min-heap of times */
    long long now;
    long long sequence;
    long long fired;
    PyObject *on_fire;           /* callable(time, label) or None */
    PyObject *fire_hooks;        /* list backing the composed on_fire */
    PyObject *installed_fire;    /* what the hook machinery last installed */
    PyObject *arena;             /* SimulationArena or None */
} SchedulerObject;

static PyTypeObject Scheduler_Type;

#define Scheduler_CheckExactBase(op) PyObject_TypeCheck(op, &Scheduler_Type)

static int
Scheduler_init(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    if ((args != NULL && PyTuple_GET_SIZE(args) != 0) ||
        (kwds != NULL && PyDict_GET_SIZE(kwds) != 0)) {
        PyErr_SetString(PyExc_TypeError, "SchedulerBase() takes no arguments");
        return -1;
    }
    PyObject *buckets = PyDict_New();
    if (buckets == NULL)
        return -1;
    PyObject *times = PyList_New(0);
    if (times == NULL) {
        Py_DECREF(buckets);
        return -1;
    }
    PyObject *hooks = PyList_New(0);
    if (hooks == NULL) {
        Py_DECREF(buckets);
        Py_DECREF(times);
        return -1;
    }
    Py_XSETREF(self->buckets, buckets);
    Py_XSETREF(self->times, times);
    Py_XSETREF(self->fire_hooks, hooks);
    self->now = 0;
    self->sequence = 0;
    self->fired = 0;
    Py_XSETREF(self->on_fire, Py_NewRef(Py_None));
    Py_XSETREF(self->installed_fire, Py_NewRef(Py_None));
    Py_XSETREF(self->arena, Py_NewRef(Py_None));
    return 0;
}

static int
Scheduler_traverse(SchedulerObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->buckets);
    Py_VISIT(self->times);
    Py_VISIT(self->on_fire);
    Py_VISIT(self->fire_hooks);
    Py_VISIT(self->installed_fire);
    Py_VISIT(self->arena);
    return 0;
}

static int
Scheduler_clear(SchedulerObject *self)
{
    Py_CLEAR(self->buckets);
    Py_CLEAR(self->times);
    Py_CLEAR(self->on_fire);
    Py_CLEAR(self->fire_hooks);
    Py_CLEAR(self->installed_fire);
    Py_CLEAR(self->arena);
    return 0;
}

static void
Scheduler_dealloc(SchedulerObject *self)
{
    PyObject_GC_UnTrack(self);
    Scheduler_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef Scheduler_members[] = {
    {"_buckets", T_OBJECT_EX, offsetof(SchedulerObject, buckets), READONLY,
     "time -> FIFO list of entries scheduled for that cycle"},
    {"_times", T_OBJECT_EX, offsetof(SchedulerObject, times), READONLY,
     "min-heap of bucket timestamps (may contain stale times)"},
    {"now", T_LONGLONG, offsetof(SchedulerObject, now), 0,
     "current simulation time in cycles"},
    {"_sequence", T_LONGLONG, offsetof(SchedulerObject, sequence), 0, NULL},
    {"_fired", T_LONGLONG, offsetof(SchedulerObject, fired), 0, NULL},
    {"on_fire", T_OBJECT_EX, offsetof(SchedulerObject, on_fire), 0,
     "optional per-fired-event hook (time, label) -> None"},
    {"_fire_hooks", T_OBJECT_EX, offsetof(SchedulerObject, fire_hooks),
     READONLY, NULL},
    {"_installed_fire", T_OBJECT_EX, offsetof(SchedulerObject, installed_fire),
     0, NULL},
    {"arena", T_OBJECT_EX, offsetof(SchedulerObject, arena), 0,
     "optional SimulationArena shared by components on this scheduler"},
    {NULL}
};

/* Append `entry` to the bucket for `time_obj`, creating bucket + heap entry
 * when the timestamp is new. */
static int
push_entry(SchedulerObject *self, PyObject *time_obj, PyObject *entry)
{
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, time_obj);
    if (bucket == NULL) {
        if (PyErr_Occurred())
            return -1;
        bucket = PyList_New(1);
        if (bucket == NULL)
            return -1;
        Py_INCREF(entry);
        PyList_SET_ITEM(bucket, 0, entry);
        if (PyDict_SetItem(self->buckets, time_obj, bucket) < 0) {
            Py_DECREF(bucket);
            return -1;
        }
        int rc = heap_push(self->times, time_obj);
        Py_DECREF(bucket);
        return rc;
    }
    return PyList_Append(bucket, entry);
}

static PyObject *
raise_negative_delay(long long delay)
{
    PyErr_Format(SimulationErrorClass != NULL ? SimulationErrorClass
                                              : PyExc_RuntimeError,
                 "delay must be non-negative, got %lld", delay);
    return NULL;
}

/* Pack and push a fast-path entry; seq consumed from the scheduler. */
static int
push_fast(SchedulerObject *self, PyObject *time_obj, PyObject *callback,
          PyObject *label, PyObject *arg)
{
    PyObject *seq = PyLong_FromLongLong(self->sequence);
    if (seq == NULL)
        return -1;
    self->sequence += 1;
    PyObject *entry = (arg == NULL)
                          ? PyTuple_Pack(4, time_obj, seq, callback, label)
                          : PyTuple_Pack(5, time_obj, seq, callback, label,
                                         arg);
    Py_DECREF(seq);
    if (entry == NULL)
        return -1;
    int rc = push_entry(self, time_obj, entry);
    Py_DECREF(entry);
    return rc;
}

/* Event-core services for the sibling translation units (_issue.c): type
 * test, current time, and the fast-path push with a boxed time. */
int
core_scheduler_check(PyObject *op)
{
    return Scheduler_CheckExactBase(op);
}

long long
core_scheduler_now(PyObject *scheduler)
{
    return ((SchedulerObject *)scheduler)->now;
}

int
core_push_fast(PyObject *scheduler, long long time, PyObject *callback,
               PyObject *label, PyObject *arg)
{
    PyObject *time_obj = PyLong_FromLongLong(time);
    if (time_obj == NULL)
        return -1;
    int rc = push_fast((SchedulerObject *)scheduler, time_obj, callback,
                       label, arg);
    Py_DECREF(time_obj);
    return rc;
}

static PyObject *
Scheduler_schedule_after_fast(SchedulerObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(
            PyExc_TypeError,
            "schedule_after_fast expects (delay, callback[, label])");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0)
        return raise_negative_delay(delay);
    PyObject *time_obj = PyLong_FromLongLong(self->now + delay);
    if (time_obj == NULL)
        return NULL;
    PyObject *label = nargs == 3 ? args[2] : empty_string;
    int rc = push_fast(self, time_obj, args[1], label, NULL);
    Py_DECREF(time_obj);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler_schedule_after_fast1(SchedulerObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    if (nargs < 3 || nargs > 4) {
        PyErr_SetString(
            PyExc_TypeError,
            "schedule_after_fast1 expects (delay, callback, arg[, label])");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0)
        return raise_negative_delay(delay);
    PyObject *time_obj = PyLong_FromLongLong(self->now + delay);
    if (time_obj == NULL)
        return NULL;
    PyObject *label = nargs == 4 ? args[3] : empty_string;
    int rc = push_fast(self, time_obj, args[1], label, args[2]);
    Py_DECREF(time_obj);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Truthiness of stop_flag[0]; -1 on error. */
static int
stop_cell_set(PyObject *stop_flag)
{
    PyObject *item;
    if (PyList_CheckExact(stop_flag) && PyList_GET_SIZE(stop_flag) > 0) {
        item = PyList_GET_ITEM(stop_flag, 0);
        Py_INCREF(item);
    }
    else {
        item = PySequence_GetItem(stop_flag, 0);
        if (item == NULL)
            return -1;
    }
    int truth = PyObject_IsTrue(item);
    Py_DECREF(item);
    return truth;
}

/* The drain loop.  One unified loop covering the pure implementation's fast
 * and generic variants: with the per-entry checks compiled, the fast loop's
 * only remaining advantage (fewer Python-level branches) is moot, and the
 * check *order* below is observably identical to both (the fast loop's
 * single-entry special case skips re-checks that provably cannot differ from
 * the pre-bucket guard's). */
static PyObject *
Scheduler_run(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", "stop_when", "stop_flag",
                             NULL};
    PyObject *until = Py_None, *max_events = Py_None;
    PyObject *stop_when = Py_None, *stop_flag = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OOOO", kwlist, &until,
                                     &max_events, &stop_when, &stop_flag))
        return NULL;

    int have_until = 0;
    long long until_ll = 0;
    if (until != Py_None) {
        until_ll = PyLong_AsLongLong(until);
        if (until_ll == -1 && PyErr_Occurred())
            return NULL;
        have_until = 1;
        if (until_ll < self->now) {
            PyErr_Format(SimulationErrorClass != NULL ? SimulationErrorClass
                                                      : PyExc_RuntimeError,
                         "run(until=%lld) is before the current time %lld",
                         until_ll, self->now);
            return NULL;
        }
    }
    long long fired_before = self->fired;
    long long fired = fired_before;
    int have_limit = 0;
    long long limit = 0;
    if (max_events != Py_None) {
        long long budget = PyLong_AsLongLong(max_events);
        if (budget == -1 && PyErr_Occurred())
            return NULL;
        have_limit = 1;
        limit = fired_before + budget;
    }
    if (stop_when == Py_None)
        stop_when = NULL;
    if (stop_flag == Py_None)
        stop_flag = NULL;
    /* Cached once like the pure loop: a mid-run on_fire assignment takes
     * effect at the next run() call. */
    PyObject *on_fire = self->on_fire == Py_None ? NULL : self->on_fire;
    Py_XINCREF(on_fire);
    Py_XINCREF(stop_when);
    Py_XINCREF(stop_flag);
    PyObject *buckets = self->buckets;
    PyObject *times = self->times;
    Py_INCREF(buckets);
    Py_INCREF(times);

    int status = 0;
    while (PyList_GET_SIZE(times) > 0) {
        PyObject *time_obj = heap_pop(times);
        if (time_obj == NULL) {
            status = -1;
            break;
        }
        PyObject *bucket = PyDict_GetItemWithError(buckets, time_obj);
        if (bucket == NULL) {
            int had_error = PyErr_Occurred() != NULL;
            Py_DECREF(time_obj);
            if (had_error) {
                status = -1;
                break;
            }
            continue; /* a timestamp with no bucket has nothing to fire */
        }
        Py_INCREF(bucket);
        long long time_ll = PyLong_AsLongLong(time_obj);
        if (time_ll == -1 && PyErr_Occurred()) {
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            status = -1;
            break;
        }
        if (have_until && time_ll > until_ll) {
            if (heap_push(times, time_obj) < 0)
                status = -1;
            else
                self->now = until_ll;
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            break;
        }
        /* Stop before advancing the clock into a bucket no event of which
         * will fire. */
        int stop_now = 0;
        if (have_limit && fired >= limit)
            stop_now = 1;
        if (!stop_now && stop_flag != NULL) {
            stop_now = stop_cell_set(stop_flag);
            if (stop_now < 0) {
                Py_DECREF(bucket);
                Py_DECREF(time_obj);
                status = -1;
                break;
            }
        }
        if (!stop_now && stop_when != NULL) {
            PyObject *verdict = PyObject_CallNoArgs(stop_when);
            if (verdict == NULL) {
                Py_DECREF(bucket);
                Py_DECREF(time_obj);
                status = -1;
                break;
            }
            stop_now = PyObject_IsTrue(verdict);
            Py_DECREF(verdict);
            if (stop_now < 0) {
                Py_DECREF(bucket);
                Py_DECREF(time_obj);
                status = -1;
                break;
            }
        }
        if (stop_now) {
            if (heap_push(times, time_obj) < 0)
                status = -1;
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            break;
        }
        self->now = time_ll;
        Py_ssize_t index = 0;
        int stopped = 0;
        int failed = 0;
        /* Size re-read every iteration: fired callbacks append same-cycle
         * entries, and a mid-callback drain() empties the list. */
        while (index < PyList_GET_SIZE(bucket)) {
            if (stop_flag != NULL) {
                int cell = stop_cell_set(stop_flag);
                if (cell < 0) {
                    failed = 1;
                    break;
                }
                if (cell) {
                    stopped = 1;
                    break;
                }
            }
            if (index >= PyList_GET_SIZE(bucket))
                break; /* stop-cell access drained the bucket */
            PyObject *entry = PyList_GET_ITEM(bucket, index);
            Py_INCREF(entry); /* the callback may clear the bucket */
            /* Every producer builds tuples; anything else is refused
             * rather than read out of bounds. */
            if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) < 4) {
                PyErr_Format(PyExc_TypeError,
                             "queue entry must be a (time, seq, callback, "
                             "label[, arg]) tuple, not %R",
                             entry);
                Py_DECREF(entry);
                failed = 1;
                break;
            }
            if (have_limit && fired >= limit) {
                stopped = 1;
                Py_DECREF(entry);
                break;
            }
            if (stop_when != NULL) {
                PyObject *verdict = PyObject_CallNoArgs(stop_when);
                if (verdict == NULL) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                int stop = PyObject_IsTrue(verdict);
                Py_DECREF(verdict);
                if (stop < 0) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                if (stop) {
                    stopped = 1;
                    Py_DECREF(entry);
                    break;
                }
            }
            index += 1;
            PyObject *callback = PyTuple_GET_ITEM(entry, 2);
            PyObject *result =
                PyTuple_GET_SIZE(entry) == 5
                    ? PyObject_CallOneArg(callback, PyTuple_GET_ITEM(entry, 4))
                    : PyObject_CallNoArgs(callback);
            if (result == NULL) {
                Py_DECREF(entry);
                failed = 1;
                break;
            }
            Py_DECREF(result);
            fired += 1;
            if (on_fire != NULL) {
                PyObject *hooked = PyObject_CallFunctionObjArgs(
                    on_fire, time_obj, PyTuple_GET_ITEM(entry, 3), NULL);
                if (hooked == NULL) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                Py_DECREF(hooked);
            }
            Py_DECREF(entry);
        }
        if (failed) {
            /* Exception epilogue: drop the consumed prefix (the raising event
             * included) and keep the remaining same-cycle events reachable —
             * mirrors the pure loop's `except BaseException` block. */
            saved_exc_t saved = save_exception();
            if (index > 0 && PyList_SetSlice(bucket, 0, index, NULL) < 0)
                PyErr_Clear();
            PyObject *current = PyDict_GetItemWithError(buckets, time_obj);
            if (current == NULL)
                PyErr_Clear();
            if (current == bucket) {
                if (PyList_GET_SIZE(bucket) > 0) {
                    if (heap_push(times, time_obj) < 0)
                        PyErr_Clear();
                }
                else if (PyDict_DelItem(buckets, time_obj) < 0)
                    PyErr_Clear();
            }
            restore_exception(saved);
            status = -1;
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            break;
        }
        if (stopped) {
            if (index > 0 && PyList_SetSlice(bucket, 0, index, NULL) < 0) {
                status = -1;
                Py_DECREF(bucket);
                Py_DECREF(time_obj);
                break;
            }
            if (PyList_GET_SIZE(bucket) > 0) {
                if (heap_push(times, time_obj) < 0)
                    status = -1;
            }
            else {
                PyObject *current = PyDict_GetItemWithError(buckets, time_obj);
                if (current == bucket) {
                    if (PyDict_DelItem(buckets, time_obj) < 0)
                        status = -1;
                }
                else if (current == NULL && PyErr_Occurred())
                    status = -1;
            }
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            break;
        }
        /* Identity-guarded delete: a mid-callback drain() may have removed
         * (or drain + reschedule replaced) this bucket. */
        PyObject *current = PyDict_GetItemWithError(buckets, time_obj);
        if (current == bucket) {
            if (PyDict_DelItem(buckets, time_obj) < 0) {
                status = -1;
                Py_DECREF(bucket);
                Py_DECREF(time_obj);
                break;
            }
        }
        else if (current == NULL && PyErr_Occurred()) {
            status = -1;
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            break;
        }
        Py_DECREF(bucket);
        Py_DECREF(time_obj);
    }

    /* finally: */
    self->fired = fired;
    Py_DECREF(buckets);
    Py_DECREF(times);
    Py_XDECREF(on_fire);
    Py_XDECREF(stop_when);
    Py_XDECREF(stop_flag);
    if (status < 0)
        return NULL;
    return PyLong_FromLongLong(fired - fired_before);
}

static PyMethodDef Scheduler_methods[] = {
    {"schedule_after_fast",
     (PyCFunction)(void (*)(void))Scheduler_schedule_after_fast, METH_FASTCALL,
     "Schedule callback() delay cycles from now."},
    {"schedule_after_fast1",
     (PyCFunction)(void (*)(void))Scheduler_schedule_after_fast1,
     METH_FASTCALL, "Schedule callback(arg) delay cycles from now."},
    {"run", (PyCFunction)(void (*)(void))Scheduler_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run events until the queue drains or a stop condition is met."},
    {NULL}
};

static PyTypeObject Scheduler_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.SchedulerBase",
    .tp_basicsize = sizeof(SchedulerObject),
    .tp_dealloc = (destructor)Scheduler_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C implementation of the bucket-queue scheduler's hot methods.",
    .tp_traverse = (traverseproc)Scheduler_traverse,
    .tp_clear = (inquiry)Scheduler_clear,
    .tp_methods = Scheduler_methods,
    .tp_members = Scheduler_members,
    .tp_init = (initproc)Scheduler_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------ Message slots
 *
 * _init_message(Message) resolves the slots of the fields every compiled
 * object reads (the declarations are in _core.h).  Called by the
 * interconnect whenever it builds compiled hops; the resolution is reused
 * while the class is unmodified, and a class whose fields are not plain
 * slots leaves every read on generic attribute access. */

SlotLayout core_message_layout;
PyObject *core_message_names[MSG_FIELDS];
static const char *message_field_text[MSG_FIELDS] = {
    "msg_type",       "src",        "address",       "size_bytes",
    "requester",      "dest",       "dest_unit",     "recipients",
    "transaction_id", "is_retry",   "original_type", "order_seq",
    "data_token",     "is_broadcast"};

static PyObject *
cext_init_message(PyObject *Py_UNUSED(module), PyObject *cls)
{
    if (!PyType_Check(cls)) {
        PyErr_SetString(PyExc_TypeError, "_init_message expects a class");
        return NULL;
    }
    if (slot_layout(&core_message_layout, (PyTypeObject *)cls,
                    core_message_names, MSG_FIELDS) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ----------------------------------------------------------- stock classes
 *
 * _init_stock(Counter, RunningMean, Component.count, CacheBlock) injects
 * the stock classes _core.h's helpers update or build by slot; each
 * argument is None when that class (or Component) is patched, which
 * leaves every such update or construction on the Python code. */

SlotLayout core_counter_layout;
SlotLayout core_mean_layout;
SlotLayout core_block_layout;
PyObject *core_count_function;
PyObject *core_s_count;
PyObject *core_s_counter_cache;
PyObject *core_s_record;
static const char *counter_slot_text[COUNTER_SLOTS] = {"_count"};
static const char *mean_slot_text[MEAN_SLOTS] = {
    "_count", "_total", "_mean", "_m2", "_minimum", "_maximum"};
static const char *block_slot_text[BLOCK_SLOTS] = {
    "address", "state", "data_token", "tracked_sharers", "last_access_time"};
static PyObject *counter_slot_names[COUNTER_SLOTS];
static PyObject *mean_slot_names[MEAN_SLOTS];
static PyObject *block_slot_names[BLOCK_SLOTS];

/* Resolve `cls` into `layout`, or forget the layout for None or a class
 * without those slots.  0 / -1. */
static int
stats_layout(SlotLayout *layout, PyObject *cls, PyObject *const *names,
             int count)
{
    if (cls == Py_None) {
        Py_CLEAR(layout->cls);
        return 0;
    }
    if (!PyType_Check(cls)) {
        PyErr_SetString(PyExc_TypeError, "_init_stock expects classes or None");
        return -1;
    }
    return slot_layout(layout, (PyTypeObject *)cls, names, count) < 0 ? -1 : 0;
}

static PyObject *
cext_init_stock(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *counter_cls, *mean_cls, *count_function, *block_cls;
    if (!PyArg_ParseTuple(args, "OOOO", &counter_cls, &mean_cls,
                          &count_function, &block_cls))
        return NULL;
    if (stats_layout(&core_counter_layout, counter_cls, counter_slot_names,
                     COUNTER_SLOTS) < 0 ||
        stats_layout(&core_mean_layout, mean_cls, mean_slot_names,
                     MEAN_SLOTS) < 0 ||
        stats_layout(&core_block_layout, block_cls, block_slot_names,
                     BLOCK_SLOTS) < 0)
        return NULL;
    Py_XSETREF(core_count_function,
               count_function == Py_None ? NULL : Py_NewRef(count_function));
    Py_RETURN_NONE;
}

/* _type_version(cls): the class's type version tag (0 when it has none),
 * which every class-level assignment to it or a base resets.  A lookup
 * through the attribute cache first assigns a tag where it can. */
static PyObject *
cext_type_version(PyObject *Py_UNUSED(module), PyObject *cls)
{
    if (!PyType_Check(cls)) {
        PyErr_SetString(PyExc_TypeError, "_type_version expects a class");
        return NULL;
    }
    (void)_PyType_Lookup((PyTypeObject *)cls, str___init__);
    return PyLong_FromUnsignedLong(((PyTypeObject *)cls)->tp_version_tag);
}

/* ---------------------------------------------------------------- LinkPush
 *
 * The compiled form of link_push in repro/interconnect/link.py: the
 * unit-cost "occupy the incoming link, then push the delivery entry" closure
 * shared by the ordered network's arrival path and the unordered network's
 * delivery path.  Calling it with a message performs the inlined
 * EndpointLink.transmit plus the scheduler bucket push, all in C.  The link
 * stays the source of truth for its scalars: they are read and written in
 * the link's own slots, so reset, the Python transmit path and the
 * busy-time queries observe every update.
 * The occupancy memo dict is prebound, the same object the pure closure
 * captures.
 *
 * A link class whose scalars are not writable object slots is refused at
 * construction (link_push then keeps the pure closure).  Per call, a
 * message that is not exactly the stock Message, or a link scalar that is
 * not a plain int, takes the pure closure before anything is written; the
 * closure is built on the first such call, from the factory link_push
 * passes in. */

enum { LINK_BUSY_UNTIL, LINK_BUSY_TOTAL, LINK_PERIOD_START, LINK_PERIOD_PREFIX,
       LINK_MESSAGES, LINK_BYTES, LINK_SLOTS,
       /* the sends also read the occupancy memo from its slot */
       LINK_OCCUPANCY = LINK_SLOTS, LINK_SEND_SLOTS };
static const char *link_slot_text[LINK_SEND_SLOTS] = {
    "_busy_until", "_busy_total", "_period_start", "_period_prefix",
    "_messages",   "_bytes",      "_occupancy_cache"};
static PyObject *link_slot_names[LINK_SEND_SLOTS];
static SlotLayout link_layout;

/* EndpointLink.transmit(now, message.size_bytes, factor) on `link`, whose
 * scalars live at `slots` and whose occupancy memo is `occupancy`; `factor`
 * is NULL for a unit-cost transfer, else the network's broadcast cost
 * factor (a value that is not 1): 1 with *done_obj (a new reference) the
 * cycle the transfer completes, 0 when the message is not exactly the
 * stock Message or a scalar is not a plain int (nothing written; the
 * caller takes the pure code), -1 on error.  Every read and check precedes
 * the first write to the link (the memo the pure code re-reads holds what
 * it would have stored itself). */
static int
link_transmit(PyObject *link, const Py_ssize_t *slots, PyObject *occupancy,
              PyObject *message, PyObject *factor, long long now,
              PyObject **done_obj)
{
    const Py_ssize_t size_slot = core_message_layout.offsets[MSG_SIZE_BYTES];
    long long size, cycles = 0, busy_until, busy_total, messages, bytes;
    if (!core_is_message(message) || !slot_ll(message, size_slot, &size))
        return 0;
    PyObject *size_obj = Py_NewRef(*SLOT_CELL(message, size_slot));
    /* Occupancy memo, kept as Link.transmit keeps it (so the memo dict the
     * reset path clears is the one populated here): a unit-cost transfer
     * under its size, filled here through occupancy_cycles on a miss; any
     * other cost factor under (size, factor), which occupancy_cycles fills
     * itself. */
    PyObject *key = factor == NULL ? Py_NewRef(size_obj)
                                   : PyTuple_Pack(2, size_obj, factor);
    PyObject *cycles_obj =
        key == NULL ? NULL : PyDict_GetItemWithError(occupancy, key);
    if (cycles_obj != NULL)
        Py_INCREF(cycles_obj);
    else if (key != NULL && !PyErr_Occurred()) {
        if (factor == NULL) {
            cycles_obj = PyObject_CallMethodOneArg(link, str_occupancy_cycles,
                                                   size_obj);
            if (cycles_obj != NULL &&
                PyDict_SetItem(occupancy, size_obj, cycles_obj) < 0)
                Py_CLEAR(cycles_obj);
        }
        else
            cycles_obj = PyObject_CallMethodObjArgs(
                link, str_occupancy_cycles, size_obj, factor, NULL);
    }
    Py_XDECREF(key);
    Py_DECREF(size_obj);
    if (cycles_obj == NULL)
        return -1;
    int overflow = 1;
    if (PyLong_CheckExact(cycles_obj))
        cycles = PyLong_AsLongLongAndOverflow(cycles_obj, &overflow);
    Py_DECREF(cycles_obj);
    long long done, total, count, carried;
    if (overflow || !slot_ll(link, slots[LINK_BUSY_UNTIL], &busy_until) ||
        !slot_ll(link, slots[LINK_BUSY_TOTAL], &busy_total) ||
        !slot_ll(link, slots[LINK_MESSAGES], &messages) ||
        !slot_ll(link, slots[LINK_BYTES], &bytes) ||
        __builtin_add_overflow(now > busy_until ? now : busy_until, cycles,
                               &done) ||
        __builtin_add_overflow(busy_total, cycles, &total) ||
        __builtin_add_overflow(messages, 1, &count) ||
        __builtin_add_overflow(bytes, size, &carried))
        return 0;
    if (now > busy_until) {
        /* The link was idle: a new busy period opens. */
        PyObject *prefix = *SLOT_CELL(link, slots[LINK_BUSY_TOTAL]);
        if (slot_store(link, slots[LINK_PERIOD_START],
                       PyLong_FromLongLong(now)) < 0 ||
            slot_store(link, slots[LINK_PERIOD_PREFIX], Py_NewRef(prefix)) <
                0)
            return -1;
    }
    PyObject *finish = PyLong_FromLongLong(done);
    if (finish == NULL ||
        slot_store(link, slots[LINK_BUSY_UNTIL], Py_NewRef(finish)) < 0 ||
        slot_store(link, slots[LINK_BUSY_TOTAL], PyLong_FromLongLong(total)) <
            0 ||
        slot_store(link, slots[LINK_MESSAGES], PyLong_FromLongLong(count)) <
            0 ||
        slot_store(link, slots[LINK_BYTES], PyLong_FromLongLong(carried)) <
            0) {
        Py_XDECREF(finish);
        return -1;
    }
    *done_obj = finish;
    return 1;
}

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    SchedulerObject *sched;
    PyObject *link;
    PyObject *occupancy; /* link._occupancy_cache (dict) */
    PyObject *deliver;   /* delivery callable */
    PyObject *label;     /* delivery label */
    PyObject *factory;   /* builds the pure closure from the four above */
    PyObject *fallback;  /* that closure, or NULL until first needed */
    Py_ssize_t slots[LINK_SLOTS];
} LinkPushObject;

static PyObject *LinkPush_vectorcall(LinkPushObject *self,
                                     PyObject *const *args, size_t nargsf,
                                     PyObject *kwnames);

static int
LinkPush_init(LinkPushObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sched, *link, *deliver, *label, *factory;
    static char *kwlist[] = {"scheduler", "link", "deliver", "label",
                             "factory", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOO", kwlist, &sched,
                                     &link, &deliver, &label, &factory))
        return -1;
    if (!Scheduler_CheckExactBase(sched)) {
        PyErr_SetString(PyExc_TypeError,
                        "LinkPush requires a compiled SchedulerBase");
        return -1;
    }
    if (slot_layout_required(&link_layout, Py_TYPE(link), link_slot_names,
                             LINK_SLOTS) < 0)
        return -1;
    PyObject *occupancy = PyObject_GetAttr(link, str__occupancy_cache);
    if (occupancy == NULL)
        return -1;
    if (!PyDict_Check(occupancy)) {
        PyErr_SetString(PyExc_TypeError,
                        "link occupancy memo is not a dict");
        Py_DECREF(occupancy);
        return -1;
    }
    memcpy(self->slots, link_layout.offsets, sizeof(self->slots));
    Py_XSETREF(self->sched, (SchedulerObject *)Py_NewRef(sched));
    Py_XSETREF(self->link, Py_NewRef(link));
    Py_XSETREF(self->occupancy, occupancy);
    Py_XSETREF(self->deliver, Py_NewRef(deliver));
    Py_XSETREF(self->label, Py_NewRef(label));
    Py_XSETREF(self->factory, Py_NewRef(factory));
    Py_CLEAR(self->fallback);
    self->vectorcall = (vectorcallfunc)LinkPush_vectorcall;
    return 0;
}

static int
LinkPush_traverse(LinkPushObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sched);
    Py_VISIT(self->link);
    Py_VISIT(self->occupancy);
    Py_VISIT(self->deliver);
    Py_VISIT(self->label);
    Py_VISIT(self->factory);
    Py_VISIT(self->fallback);
    return 0;
}

static int
LinkPush_clear(LinkPushObject *self)
{
    Py_CLEAR(self->sched);
    Py_CLEAR(self->link);
    Py_CLEAR(self->occupancy);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->label);
    Py_CLEAR(self->factory);
    Py_CLEAR(self->fallback);
    return 0;
}

static void
LinkPush_dealloc(LinkPushObject *self)
{
    PyObject_GC_UnTrack(self);
    LinkPush_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Hand `message` to the pure closure, building it on first use. */
static PyObject *
link_push_fallback(LinkPushObject *self, PyObject *message)
{
    if (self->fallback == NULL) {
        PyObject *argv[4] = {(PyObject *)self->sched, self->link,
                             self->deliver, self->label};
        PyObject *closure = PyObject_Vectorcall(self->factory, argv, 4, NULL);
        if (closure == NULL)
            return NULL;
        Py_XSETREF(self->fallback, closure);
    }
    return PyObject_CallOneArg(self->fallback, message);
}

static PyObject *
LinkPush_vectorcall(LinkPushObject *self, PyObject *const *args,
                    size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("LinkPush", nargsf, kwnames, 1))
        return NULL;
    PyObject *message = args[0];
    PyObject *done_obj;
    int rc = link_transmit(self->link, self->slots, self->occupancy, message,
                           NULL, self->sched->now, &done_obj);
    if (rc == 0)
        return link_push_fallback(self, message);
    if (rc < 0)
        return NULL;
    rc = push_fast(self->sched, done_obj, self->deliver, self->label, message);
    Py_DECREF(done_obj);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject LinkPush_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.LinkPush",
    .tp_basicsize = sizeof(LinkPushObject),
    .tp_dealloc = (destructor)LinkPush_dealloc,
    .tp_vectorcall_offset = offsetof(LinkPushObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled unit-cost link-occupancy + delivery-push closure.",
    .tp_traverse = (traverseproc)LinkPush_traverse,
    .tp_clear = (inquiry)LinkPush_clear,
    .tp_init = (initproc)LinkPush_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------- Relay
 *
 * The compiled form of the unordered network's traverse closure: push
 * (now + delay, seq, callback, label, message). */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    SchedulerObject *sched;
    long long delay;
    PyObject *callback;
    PyObject *label;
} RelayObject;

static PyObject *Relay_vectorcall(RelayObject *self, PyObject *const *args,
                                  size_t nargsf, PyObject *kwnames);

static int
Relay_init(RelayObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sched, *callback, *label;
    long long delay;
    static char *kwlist[] = {"scheduler", "delay", "callback", "label", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OLOO", kwlist, &sched,
                                     &delay, &callback, &label))
        return -1;
    if (!Scheduler_CheckExactBase(sched)) {
        PyErr_SetString(PyExc_TypeError,
                        "Relay requires a compiled SchedulerBase");
        return -1;
    }
    if (delay < 0) {
        PyErr_SetString(PyExc_ValueError, "Relay delay must be non-negative");
        return -1;
    }
    Py_XSETREF(self->sched, (SchedulerObject *)Py_NewRef(sched));
    self->delay = delay;
    Py_XSETREF(self->callback, Py_NewRef(callback));
    Py_XSETREF(self->label, Py_NewRef(label));
    self->vectorcall = (vectorcallfunc)Relay_vectorcall;
    return 0;
}

static int
Relay_traverse(RelayObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sched);
    Py_VISIT(self->callback);
    Py_VISIT(self->label);
    return 0;
}

static int
Relay_clear(RelayObject *self)
{
    Py_CLEAR(self->sched);
    Py_CLEAR(self->callback);
    Py_CLEAR(self->label);
    return 0;
}

static void
Relay_dealloc(RelayObject *self)
{
    PyObject_GC_UnTrack(self);
    Relay_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Relay_vectorcall(RelayObject *self, PyObject *const *args, size_t nargsf,
                 PyObject *kwnames)
{
    if (!vectorcall_args("Relay", nargsf, kwnames, 1))
        return NULL;
    SchedulerObject *sched = self->sched;
    PyObject *time_obj = PyLong_FromLongLong(sched->now + self->delay);
    if (time_obj == NULL)
        return NULL;
    int rc = push_fast(sched, time_obj, self->callback, self->label,
                          args[0]);
    Py_DECREF(time_obj);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject Relay_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.Relay",
    .tp_basicsize = sizeof(RelayObject),
    .tp_dealloc = (destructor)Relay_dealloc,
    .tp_vectorcall_offset = offsetof(RelayObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled fixed-delay relay closure (push now+delay entry).",
    .tp_traverse = (traverseproc)Relay_traverse,
    .tp_clear = (inquiry)Relay_clear,
    .tp_init = (initproc)Relay_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------- SwitchEnter
 *
 * The compiled form of TotallyOrderedNetwork._enter_switch: assign the
 * message its total-order sequence number (the network's
 * `_order_sequence`, read and written through its attributes), look up the
 * resolved fan-out for (msg_type, recipients) in the network's memo, and
 * append one (exit, seq, arrive, label, message) entry per recipient to
 * the exit cycle's bucket.  A memo miss calls the network's `_fanout`
 * method, which fills the memo exactly as the pure method does. */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    SchedulerObject *sched;
    PyObject *network;
    PyObject *memo;    /* network._fanout_memo (dict) */
} SwitchEnterObject;

static PyObject *SwitchEnter_vectorcall(SwitchEnterObject *self,
                                        PyObject *const *args, size_t nargsf,
                                        PyObject *kwnames);

static int
SwitchEnter_init(SwitchEnterObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sched, *network;
    static char *kwlist[] = {"scheduler", "network", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist, &sched,
                                     &network))
        return -1;
    if (!Scheduler_CheckExactBase(sched)) {
        PyErr_SetString(PyExc_TypeError,
                        "SwitchEnter requires a compiled SchedulerBase");
        return -1;
    }
    PyObject *memo = PyObject_GetAttr(network, str__fanout_memo);
    if (memo == NULL)
        return -1;
    if (!PyDict_Check(memo)) {
        PyErr_SetString(PyExc_TypeError, "fan-out memo must be a dict");
        Py_DECREF(memo);
        return -1;
    }
    Py_XSETREF(self->sched, (SchedulerObject *)Py_NewRef(sched));
    Py_XSETREF(self->network, Py_NewRef(network));
    Py_XSETREF(self->memo, memo);
    self->vectorcall = (vectorcallfunc)SwitchEnter_vectorcall;
    return 0;
}

static int
SwitchEnter_traverse(SwitchEnterObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sched);
    Py_VISIT(self->network);
    Py_VISIT(self->memo);
    return 0;
}

static int
SwitchEnter_clear(SwitchEnterObject *self)
{
    Py_CLEAR(self->sched);
    Py_CLEAR(self->network);
    Py_CLEAR(self->memo);
    return 0;
}

static void
SwitchEnter_dealloc(SwitchEnterObject *self)
{
    PyObject_GC_UnTrack(self);
    SwitchEnter_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The resolved fan-out for the message (new reference), NULL on error. */
static PyObject *
switch_fanout(SwitchEnterObject *self, PyObject *message)
{
    PyObject *fanout = NULL;
    PyObject *msg_type = message_get(message, MSG_MSG_TYPE);
    PyObject *recipients =
        msg_type == NULL ? NULL : message_get(message, MSG_RECIPIENTS);
    PyObject *key =
        recipients == NULL ? NULL : PyTuple_Pack(2, msg_type, recipients);
    if (key != NULL) {
        fanout = PyDict_GetItemWithError(self->memo, key);
        if (fanout != NULL)
            Py_INCREF(fanout);
        else if (!PyErr_Occurred()) {
            PyObject *argv[3] = {self->network, msg_type, recipients};
            fanout = PyObject_VectorcallMethod(
                str__fanout, argv, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        }
    }
    Py_XDECREF(key);
    Py_XDECREF(recipients);
    Py_XDECREF(msg_type);
    if (fanout != NULL && !PyTuple_Check(fanout)) {
        PyErr_SetString(PyExc_TypeError, "fan-out must be a tuple");
        Py_CLEAR(fanout);
    }
    return fanout;
}

static PyObject *
SwitchEnter_vectorcall(SwitchEnterObject *self, PyObject *const *args,
                       size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("SwitchEnter", nargsf, kwnames, 1))
        return NULL;
    PyObject *message = args[0];
    SchedulerObject *sched = self->sched;
    PyObject *network = self->network;
    /* message.order_seq = network._order_sequence; the counter += 1 */
    PyObject *order = PyObject_GetAttr(network, str__order_sequence);
    if (order == NULL)
        return NULL;
    PyObject *next = PyNumber_Add(order, int_one);
    int rc = next == NULL ? -1 : message_set(message, MSG_ORDER_SEQ, order);
    Py_DECREF(order);
    if (rc == 0)
        rc = PyObject_SetAttr(network, str__order_sequence, next);
    Py_XDECREF(next);
    if (rc < 0)
        return NULL;
    /* exit = scheduler.now + network.traversal_cycles */
    PyObject *traversal = PyObject_GetAttr(network, str_traversal_cycles);
    if (traversal == NULL)
        return NULL;
    PyObject *now = PyLong_FromLongLong(sched->now);
    PyObject *time_obj = now == NULL ? NULL : PyNumber_Add(now, traversal);
    Py_XDECREF(now);
    Py_DECREF(traversal);
    if (time_obj == NULL)
        return NULL;
    PyObject *fanout = switch_fanout(self, message);
    if (fanout == NULL) {
        Py_DECREF(time_obj);
        return NULL;
    }
    /* All recipients arrive at the same cycle: resolve the bucket once and
     * append the whole fan-out to it. */
    PyObject *bucket = PyDict_GetItemWithError(sched->buckets, time_obj);
    if (bucket != NULL)
        Py_INCREF(bucket);
    else if (!PyErr_Occurred()) {
        bucket = PyList_New(0);
        if (bucket != NULL &&
            (PyDict_SetItem(sched->buckets, time_obj, bucket) < 0 ||
             heap_push(sched->times, time_obj) < 0))
            Py_CLEAR(bucket);
    }
    rc = bucket == NULL ? -1 : 0;
    Py_ssize_t count = PyTuple_GET_SIZE(fanout);
    for (Py_ssize_t i = 0; rc == 0 && i < count; i++) {
        PyObject *pair = PyTuple_GET_ITEM(fanout, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "fan-out entries must be (callback, label) pairs");
            rc = -1;
            break;
        }
        PyObject *seq = PyLong_FromLongLong(sched->sequence);
        if (seq == NULL) {
            rc = -1;
            break;
        }
        sched->sequence += 1;
        PyObject *entry =
            PyTuple_Pack(5, time_obj, seq, PyTuple_GET_ITEM(pair, 0),
                         PyTuple_GET_ITEM(pair, 1), message);
        Py_DECREF(seq);
        rc = entry == NULL ? -1 : PyList_Append(bucket, entry);
        Py_XDECREF(entry);
    }
    Py_XDECREF(bucket);
    Py_DECREF(time_obj);
    Py_DECREF(fanout);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject SwitchEnter_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.SwitchEnter",
    .tp_basicsize = sizeof(SwitchEnterObject),
    .tp_dealloc = (destructor)SwitchEnter_dealloc,
    .tp_vectorcall_offset = offsetof(SwitchEnterObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled ordered-network switch entry (order + fan-out).",
    .tp_traverse = (traverseproc)SwitchEnter_traverse,
    .tp_clear = (inquiry)SwitchEnter_clear,
    .tp_init = (initproc)SwitchEnter_init,
    .tp_new = PyType_GenericNew,
};

/* --------------------------------------------------------- UnorderedArrive
 *
 * The compiled form of UnorderedNetwork._arrive, the target of every
 * unordered Relay: look up the (msg_type, dest, dest_unit) delivery entry
 * in the network's `_deliver_entries` (a miss calls the network's
 * `_compile_delivery` method, which fills it) and call the entry's
 * occupy-and-schedule push. */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *network;
    PyObject *entries; /* network._deliver_entries (dict) */
} UnorderedArriveObject;

static PyObject *UnorderedArrive_vectorcall(UnorderedArriveObject *self,
                                            PyObject *const *args,
                                            size_t nargsf, PyObject *kwnames);

static int
UnorderedArrive_init(UnorderedArriveObject *self, PyObject *args,
                     PyObject *kwds)
{
    PyObject *network;
    static char *kwlist[] = {"network", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &network))
        return -1;
    PyObject *entries = PyObject_GetAttr(network, str__deliver_entries);
    if (entries == NULL)
        return -1;
    if (!PyDict_Check(entries)) {
        PyErr_SetString(PyExc_TypeError, "delivery entries must be a dict");
        Py_DECREF(entries);
        return -1;
    }
    Py_XSETREF(self->network, Py_NewRef(network));
    Py_XSETREF(self->entries, entries);
    self->vectorcall = (vectorcallfunc)UnorderedArrive_vectorcall;
    return 0;
}

static int
UnorderedArrive_traverse(UnorderedArriveObject *self, visitproc visit,
                         void *arg)
{
    Py_VISIT(self->network);
    Py_VISIT(self->entries);
    return 0;
}

static int
UnorderedArrive_clear(UnorderedArriveObject *self)
{
    Py_CLEAR(self->network);
    Py_CLEAR(self->entries);
    return 0;
}

static void
UnorderedArrive_dealloc(UnorderedArriveObject *self)
{
    PyObject_GC_UnTrack(self);
    UnorderedArrive_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
UnorderedArrive_vectorcall(UnorderedArriveObject *self, PyObject *const *args,
                           size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("UnorderedArrive", nargsf, kwnames, 1))
        return NULL;
    PyObject *message = args[0];
    PyObject *entry = NULL;
    /* argv[0] is the network, for the _compile_delivery call on a miss. */
    PyObject *argv[4] = {self->network, message_get(message, MSG_MSG_TYPE),
                         NULL, NULL};
    if (argv[1] != NULL)
        argv[2] = message_get(message, MSG_DEST);
    if (argv[2] != NULL)
        argv[3] = message_get(message, MSG_DEST_UNIT);
    if (argv[3] != NULL) {
        PyObject *key = PyTuple_Pack(3, argv[1], argv[2], argv[3]);
        if (key != NULL) {
            entry = PyDict_GetItemWithError(self->entries, key);
            if (entry != NULL)
                Py_INCREF(entry);
            else if (!PyErr_Occurred())
                entry = PyObject_VectorcallMethod(
                    str__compile_delivery, argv,
                    4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            Py_DECREF(key);
        }
    }
    for (int i = 1; i < 4; i++)
        Py_XDECREF(argv[i]);
    if (entry == NULL)
        return NULL;
    PyObject *occupy = PySequence_GetItem(entry, 2);
    Py_DECREF(entry);
    if (occupy == NULL)
        return NULL;
    PyObject *result = PyObject_CallOneArg(occupy, message);
    Py_DECREF(occupy);
    return result;
}

static PyTypeObject UnorderedArrive_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.UnorderedArrive",
    .tp_basicsize = sizeof(UnorderedArriveObject),
    .tp_dealloc = (destructor)UnorderedArrive_dealloc,
    .tp_vectorcall_offset = offsetof(UnorderedArriveObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled unordered-network arrival (delivery-entry lookup).",
    .tp_traverse = (traverseproc)UnorderedArrive_traverse,
    .tp_clear = (inquiry)UnorderedArrive_clear,
    .tp_init = (initproc)UnorderedArrive_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------ UnorderedSend, OrderedSend
 *
 * The compiled forms of UnorderedNetwork.send and TotallyOrderedNetwork.send,
 * bound as the controllers' _unordered_send / _ordered_send and scheduled as
 * the callback of every delayed send: occupy the source node's outgoing
 * link (link_transmit, the same slot-direct transmit LinkPush runs), count
 * the message, and push the injection entry.  The network's containers
 * (links, injection memos, counters) are the ones its Python method uses.
 * Both read a message by slot, so anything but the stock Message -- and an
 * unknown node, a link of another class (or its class patched since
 * construction), a recipient set that is not a plain set, a label memo
 * miss -- calls the network's Python send method before anything is
 * written, which raises or handles it exactly as the pure path does.  A
 * broadcast occupies the link at the network's broadcast_cost_factor,
 * memoised under (size, factor) when that is not 1, as Link.transmit
 * does. */

/* The fields both sends share. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    SchedulerObject *sched;
    PyObject *network;
    PyObject *links;       /* network.links (dict: node -> LinkPair) */
    PyObject *out_links;   /* node -> outgoing link, filled on first use */
    PyObject *messages;    /* network._messages_counter */
    SlotLayout link_layout; /* the link class pinned at construction */
} SendObject;

static int
send_init(SendObject *self, PyObject *sched, PyObject *network,
          PyObject *link_cls, const char *name)
{
    if (!Scheduler_CheckExactBase(sched)) {
        PyErr_Format(PyExc_TypeError, "%s requires a compiled SchedulerBase",
                     name);
        return -1;
    }
    if (!PyType_Check(link_cls)) {
        PyErr_Format(PyExc_TypeError, "%s requires a link class", name);
        return -1;
    }
    if (slot_layout_required(&self->link_layout, (PyTypeObject *)link_cls,
                             link_slot_names, LINK_SEND_SLOTS) < 0)
        return -1;
    PyObject *links = PyObject_GetAttr(network, str_links);
    if (links == NULL)
        return -1;
    PyObject *messages = PyObject_GetAttr(network, str__messages_counter);
    PyObject *out_links = PyDict_New();
    if (messages == NULL || out_links == NULL || !PyDict_Check(links)) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_TypeError, "%s requires a links dict", name);
        Py_DECREF(links);
        Py_XDECREF(messages);
        Py_XDECREF(out_links);
        return -1;
    }
    Py_XSETREF(self->sched, (SchedulerObject *)Py_NewRef(sched));
    Py_XSETREF(self->network, Py_NewRef(network));
    Py_XSETREF(self->links, links);
    Py_XSETREF(self->out_links, out_links);
    Py_XSETREF(self->messages, messages);
    return 0;
}

static int
send_traverse(SendObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sched);
    Py_VISIT(self->network);
    Py_VISIT(self->links);
    Py_VISIT(self->out_links);
    Py_VISIT(self->messages);
    Py_VISIT(self->link_layout.cls);
    return 0;
}

static int
send_clear(SendObject *self)
{
    Py_CLEAR(self->sched);
    Py_CLEAR(self->network);
    Py_CLEAR(self->links);
    Py_CLEAR(self->out_links);
    Py_CLEAR(self->messages);
    Py_CLEAR(self->link_layout.cls);
    return 0;
}

/* The source link's transmit for a stock `message` at cost `factor` (NULL
 * for unit cost): 1 with *done_obj set, 0 when the pure send must run
 * (nothing written), -1 on error. */
static int
send_transmit(SendObject *self, PyObject *message, PyObject *factor,
              PyObject **done_obj)
{
    PyObject *src = *SLOT_CELL(message, core_message_layout.offsets[MSG_SRC]);
    if (src == NULL)
        return 0;
    PyObject *link = PyDict_GetItemWithError(self->out_links, src);
    if (link == NULL) {
        if (PyErr_Occurred())
            return -1;
        PyObject *pair = PyDict_GetItemWithError(self->links, src);
        if (pair == NULL)
            return PyErr_Occurred() ? -1 : 0;
        PyObject *outgoing = PyObject_GetAttr(pair, str_outgoing);
        if (outgoing == NULL) {
            PyErr_Clear(); /* the pure send raises it */
            return 0;
        }
        int rc = PyDict_SetItem(self->out_links, src, outgoing);
        Py_DECREF(outgoing);
        if (rc < 0)
            return -1;
        link = outgoing; /* borrowed from out_links */
    }
    if (!layout_current(&self->link_layout, link))
        return 0;
    const Py_ssize_t *slots = self->link_layout.offsets;
    PyObject *occupancy = *SLOT_CELL(link, slots[LINK_OCCUPANCY]);
    if (occupancy == NULL || !PyDict_CheckExact(occupancy))
        return 0;
    /* A memo miss runs the link's Python occupancy_cycles. */
    Py_INCREF(link);
    Py_INCREF(occupancy);
    int rc = link_transmit(link, slots, occupancy, message, factor,
                           self->sched->now, done_obj);
    Py_DECREF(occupancy);
    Py_DECREF(link);
    return rc;
}

/* network.send(*args): the pure method, for every shape the C path does
 * not take. */
static PyObject *
send_pure(SendObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *argv[3] = {self->network, args[0], nargs > 1 ? args[1] : NULL};
    return PyObject_VectorcallMethod(str_send, argv,
                                     (1 + nargs) |
                                         PY_VECTORCALL_ARGUMENTS_OFFSET,
                                     NULL);
}

typedef struct {
    SendObject base;
    PyObject *entries; /* network._inject_entries (dict) */
} UnorderedSendObject;

static PyObject *UnorderedSend_vectorcall(UnorderedSendObject *self,
                                          PyObject *const *args,
                                          size_t nargsf, PyObject *kwnames);

static int
UnorderedSend_init(UnorderedSendObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sched, *network, *link_cls;
    static char *kwlist[] = {"scheduler", "network", "link_cls", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO", kwlist, &sched,
                                     &network, &link_cls))
        return -1;
    if (send_init(&self->base, sched, network, link_cls, "UnorderedSend") < 0)
        return -1;
    PyObject *entries = PyObject_GetAttr(network, str__inject_entries);
    if (entries == NULL)
        return -1;
    if (!PyDict_Check(entries)) {
        PyErr_SetString(PyExc_TypeError, "injection entries must be a dict");
        Py_DECREF(entries);
        return -1;
    }
    Py_XSETREF(self->entries, entries);
    self->base.vectorcall = (vectorcallfunc)UnorderedSend_vectorcall;
    return 0;
}

static int
UnorderedSend_traverse(UnorderedSendObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->entries);
    return send_traverse(&self->base, visit, arg);
}

static int
UnorderedSend_clear(UnorderedSendObject *self)
{
    Py_CLEAR(self->entries);
    return send_clear(&self->base);
}

static void
UnorderedSend_dealloc(UnorderedSendObject *self)
{
    PyObject_GC_UnTrack(self);
    UnorderedSend_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
UnorderedSend_vectorcall(UnorderedSendObject *self, PyObject *const *args,
                         size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("UnorderedSend", nargsf, kwnames, 1))
        return NULL;
    SendObject *base = &self->base;
    PyObject *message = args[0];
    if (!core_is_message(message))
        return send_pure(base, args, 1);
    const Py_ssize_t *fields = core_message_layout.offsets;
    PyObject *dest = *SLOT_CELL(message, fields[MSG_DEST]);
    PyObject *msg_type = *SLOT_CELL(message, fields[MSG_MSG_TYPE]);
    if (dest == NULL || msg_type == NULL)
        return send_pure(base, args, 1);
    int known = PyDict_Contains(base->links, dest);
    if (known <= 0)
        return known < 0 ? NULL : send_pure(base, args, 1);
    /* The (inject label, traverse) entry; a miss compiles it exactly as
     * the pure send does (it has no other effect). */
    PyObject *entry = PyDict_GetItemWithError(self->entries, msg_type);
    if (entry != NULL)
        Py_INCREF(entry);
    else if (PyErr_Occurred())
        return NULL;
    else {
        PyObject *argv[2] = {base->network, msg_type};
        entry = PyObject_VectorcallMethod(
            str__compile_injection, argv, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET,
            NULL);
        if (entry == NULL)
            return NULL;
    }
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 2) {
        Py_DECREF(entry);
        return send_pure(base, args, 1);
    }
    PyObject *done_obj;
    int rc = send_transmit(base, message, NULL, &done_obj);
    if (rc <= 0) {
        Py_DECREF(entry);
        return rc < 0 ? NULL : send_pure(base, args, 1);
    }
    rc = counter_bump(base->messages, str__count);
    if (rc == 0)
        rc = push_fast(base->sched, done_obj, PyTuple_GET_ITEM(entry, 1),
                       PyTuple_GET_ITEM(entry, 0), message);
    Py_DECREF(done_obj);
    Py_DECREF(entry);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject UnorderedSend_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.UnorderedSend",
    .tp_basicsize = sizeof(UnorderedSendObject),
    .tp_dealloc = (destructor)UnorderedSend_dealloc,
    .tp_vectorcall_offset = offsetof(SendObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled UnorderedNetwork.send (source link + injection).",
    .tp_traverse = (traverseproc)UnorderedSend_traverse,
    .tp_clear = (inquiry)UnorderedSend_clear,
    .tp_init = (initproc)UnorderedSend_init,
    .tp_new = PyType_GenericNew,
};

typedef struct {
    SendObject base;
    PyObject *node_ids;      /* network._node_ids (frozenset) */
    PyObject *labels;        /* network._inject_labels (dict) */
    PyObject *enter_switch;  /* network._enter_switch_callback */
    PyObject *broadcasts;    /* network._broadcasts_counter */
    PyObject *multicasts;    /* network._multicasts_counter */
} OrderedSendObject;

static PyObject *OrderedSend_vectorcall(OrderedSendObject *self,
                                        PyObject *const *args, size_t nargsf,
                                        PyObject *kwnames);

static int
OrderedSend_init(OrderedSendObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sched, *network, *link_cls;
    static char *kwlist[] = {"scheduler", "network", "link_cls", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO", kwlist, &sched,
                                     &network, &link_cls))
        return -1;
    if (send_init(&self->base, sched, network, link_cls, "OrderedSend") < 0)
        return -1;
    PyObject *node_ids = PyObject_GetAttr(network, str__node_ids);
    PyObject *labels =
        node_ids == NULL ? NULL : PyObject_GetAttr(network, str__inject_labels);
    PyObject *enter =
        labels == NULL ? NULL
                       : PyObject_GetAttr(network, str__enter_switch_callback);
    PyObject *broadcasts =
        enter == NULL ? NULL
                      : PyObject_GetAttr(network, str__broadcasts_counter);
    PyObject *multicasts =
        broadcasts == NULL
            ? NULL
            : PyObject_GetAttr(network, str__multicasts_counter);
    if (multicasts != NULL &&
        (!PyFrozenSet_CheckExact(node_ids) || !PyDict_Check(labels)))
        PyErr_SetString(PyExc_TypeError,
                        "OrderedSend requires a node-id frozenset and a "
                        "label dict");
    if (PyErr_Occurred()) {
        Py_XDECREF(node_ids);
        Py_XDECREF(labels);
        Py_XDECREF(enter);
        Py_XDECREF(broadcasts);
        Py_XDECREF(multicasts);
        return -1;
    }
    Py_XSETREF(self->node_ids, node_ids);
    Py_XSETREF(self->labels, labels);
    Py_XSETREF(self->enter_switch, enter);
    Py_XSETREF(self->broadcasts, broadcasts);
    Py_XSETREF(self->multicasts, multicasts);
    self->base.vectorcall = (vectorcallfunc)OrderedSend_vectorcall;
    return 0;
}

static int
OrderedSend_traverse(OrderedSendObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->node_ids);
    Py_VISIT(self->labels);
    Py_VISIT(self->enter_switch);
    Py_VISIT(self->broadcasts);
    Py_VISIT(self->multicasts);
    return send_traverse(&self->base, visit, arg);
}

static int
OrderedSend_clear(OrderedSendObject *self)
{
    Py_CLEAR(self->node_ids);
    Py_CLEAR(self->labels);
    Py_CLEAR(self->enter_switch);
    Py_CLEAR(self->broadcasts);
    Py_CLEAR(self->multicasts);
    return send_clear(&self->base);
}

static void
OrderedSend_dealloc(OrderedSendObject *self)
{
    PyObject_GC_UnTrack(self);
    OrderedSend_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* TotallyOrderedNetwork.send(message, recipients). */
static PyObject *
ordered_send(OrderedSendObject *self, PyObject *message, PyObject *recipients)
{
    SendObject *base = &self->base;
    PyObject *argv[2] = {message, recipients};
    if (!core_is_message(message) || !PyAnySet_CheckExact(recipients) ||
        PySet_GET_SIZE(recipients) == 0)
        return send_pure(base, argv, 2);
    const Py_ssize_t *fields = core_message_layout.offsets;
    PyObject *msg_type = *SLOT_CELL(message, fields[MSG_MSG_TYPE]);
    if (msg_type == NULL)
        return send_pure(base, argv, 2);
    /* The network's own node-id set (what Interconnect.all_nodes returns)
     * is every node; anything else takes the subset test. */
    int subset = recipients == self->node_ids
                     ? 1
                     : PyObject_RichCompareBool(recipients, self->node_ids,
                                                Py_LE);
    if (subset <= 0)
        return subset < 0 ? NULL : send_pure(base, argv, 2);
    int broadcast =
        PySet_GET_SIZE(recipients) == PySet_GET_SIZE(self->node_ids);
    PyObject *label = PyDict_GetItemWithError(self->labels, msg_type);
    if (label == NULL)
        return PyErr_Occurred() ? NULL : send_pure(base, argv, 2);
    /* A broadcast occupies the link at the network's cost factor; the
     * factor is passed on only when it is not 1 (the memo key changes). */
    PyObject *factor = NULL;
    if (broadcast) {
        factor = PyObject_GetAttr(base->network, str_broadcast_cost_factor);
        if (factor == NULL)
            return NULL;
        int unit = PyObject_RichCompareBool(factor, float_one, Py_EQ);
        if (unit < 0) {
            Py_DECREF(factor);
            return NULL;
        }
        if (unit)
            Py_CLEAR(factor);
    }
    Py_INCREF(label);
    /* frozenset(recipients): an exact frozenset is returned as is. */
    PyObject *frozen = PyFrozenSet_CheckExact(recipients)
                           ? Py_NewRef(recipients)
                           : PyFrozenSet_New(recipients);
    if (frozen == NULL) {
        Py_XDECREF(factor);
        Py_DECREF(label);
        return NULL;
    }
    PyObject *done_obj = NULL;
    int rc = send_transmit(base, message, factor, &done_obj);
    Py_XDECREF(factor);
    if (rc == 0) {
        Py_DECREF(frozen);
        Py_DECREF(label);
        return send_pure(base, argv, 2);
    }
    if (rc > 0) {
        rc = slot_store(message, fields[MSG_RECIPIENTS], Py_NewRef(frozen));
        if (rc == 0)
            rc = slot_store(message, fields[MSG_IS_BROADCAST],
                            PyBool_FromLong(broadcast));
        if (rc == 0)
            rc = counter_bump(base->messages, str__count);
        if (rc == 0)
            rc = counter_bump(broadcast ? self->broadcasts : self->multicasts,
                              str__count);
        if (rc == 0)
            rc = push_fast(base->sched, done_obj, self->enter_switch, label,
                           message);
    }
    Py_XDECREF(done_obj);
    Py_DECREF(frozen);
    Py_DECREF(label);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* send(message, recipients), or send(message) with the recipients riding
 * on the message (DirectoryMemoryController._inject_ordered's form, the
 * callback of the Directory home's delayed markers and forwards). */
static PyObject *
OrderedSend_vectorcall(OrderedSendObject *self, PyObject *const *args,
                       size_t nargsf, PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    if (nargs != 1 && !vectorcall_args("OrderedSend", nargsf, kwnames, 2))
        return NULL;
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "OrderedSend takes no keyword arguments");
        return NULL;
    }
    if (nargs == 2)
        return ordered_send(self, args[0], args[1]);
    PyObject *recipients = message_get(args[0], MSG_RECIPIENTS);
    if (recipients == NULL)
        return NULL;
    PyObject *result = ordered_send(self, args[0], recipients);
    Py_DECREF(recipients);
    return result;
}

static PyTypeObject OrderedSend_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.OrderedSend",
    .tp_basicsize = sizeof(OrderedSendObject),
    .tp_dealloc = (destructor)OrderedSend_dealloc,
    .tp_vectorcall_offset = offsetof(SendObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled TotallyOrderedNetwork.send (source link + injection).",
    .tp_traverse = (traverseproc)OrderedSend_traverse,
    .tp_clear = (inquiry)OrderedSend_clear,
    .tp_init = (initproc)OrderedSend_init,
    .tp_new = PyType_GenericNew,
};

/* -------------------------------------------------------- module functions */

/* _init_classes(SimulationError): inject the error class the scheduler
 * raises.  Called by repro.sim.scheduler when it builds the compiled class. */
static PyObject *
cext_init_classes(PyObject *Py_UNUSED(module), PyObject *error_class)
{
    Py_XSETREF(SimulationErrorClass, Py_NewRef(error_class));
    Py_RETURN_NONE;
}

static PyMethodDef cext_methods[] = {
    {"_init_message", cext_init_message, METH_O,
     "Resolve the slots of the Message fields the compiled objects read."},
    {"_init_stock", cext_init_stock, METH_VARARGS,
     "Inject the stock Counter, RunningMean and CacheBlock classes and "
     "Component.count (None for any that is patched)."},
    {"_type_version", cext_type_version, METH_O,
     "A class's type version tag (0 when it has none)."},
    {"_init_classes", cext_init_classes, METH_O,
     "Inject the SimulationError class."},
    {NULL}
};

static struct PyModuleDef cext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._core._cext",
    .m_doc = "Compiled event core: scheduler + interconnect hot paths.",
    .m_size = -1,
    .m_methods = cext_methods,
};

PyMODINIT_FUNC
PyInit__cext(void)
{
    if (PyType_Ready(&Scheduler_Type) < 0 ||
        PyType_Ready(&LinkPush_Type) < 0 || PyType_Ready(&Relay_Type) < 0 ||
        PyType_Ready(&SwitchEnter_Type) < 0 ||
        PyType_Ready(&UnorderedArrive_Type) < 0 ||
        PyType_Ready(&UnorderedSend_Type) < 0 ||
        PyType_Ready(&OrderedSend_Type) < 0)
        return NULL;

#define INTERN(var, text)                                                      \
    do {                                                                       \
        var = PyUnicode_InternFromString(text);                                \
        if (var == NULL)                                                       \
            return NULL;                                                       \
    } while (0)

    INTERN(str_occupancy_cycles, "occupancy_cycles");
    INTERN(str__occupancy_cache, "_occupancy_cache");
    INTERN(str__order_sequence, "_order_sequence");
    INTERN(str_traversal_cycles, "traversal_cycles");
    INTERN(str__fanout_memo, "_fanout_memo");
    INTERN(str__fanout, "_fanout");
    INTERN(str__deliver_entries, "_deliver_entries");
    INTERN(str__compile_delivery, "_compile_delivery");
    INTERN(str__compile_injection, "_compile_injection");
    INTERN(str_send, "send");
    INTERN(str_outgoing, "outgoing");
    INTERN(str_broadcast_cost_factor, "broadcast_cost_factor");
    INTERN(str__count, "_count");
    INTERN(str___init__, "__init__");
    INTERN(str_links, "links");
    INTERN(str__messages_counter, "_messages_counter");
    INTERN(str__inject_entries, "_inject_entries");
    INTERN(str__node_ids, "_node_ids");
    INTERN(str__inject_labels, "_inject_labels");
    INTERN(str__enter_switch_callback, "_enter_switch_callback");
    INTERN(str__broadcasts_counter, "_broadcasts_counter");
    INTERN(str__multicasts_counter, "_multicasts_counter");
    INTERN(empty_string, "");
    INTERN(core_s_count, "count");
    INTERN(core_s_counter_cache, "_counter_cache");
    INTERN(core_s_record, "record");
    for (int i = 0; i < LINK_SEND_SLOTS; i++)
        INTERN(link_slot_names[i], link_slot_text[i]);
    for (int i = 0; i < MSG_FIELDS; i++)
        INTERN(core_message_names[i], message_field_text[i]);
    for (int i = 0; i < COUNTER_SLOTS; i++)
        INTERN(counter_slot_names[i], counter_slot_text[i]);
    for (int i = 0; i < MEAN_SLOTS; i++)
        INTERN(mean_slot_names[i], mean_slot_text[i]);
    for (int i = 0; i < BLOCK_SLOTS; i++)
        INTERN(block_slot_names[i], block_slot_text[i]);
#undef INTERN
    int_one = PyLong_FromLong(1);
    float_one = PyFloat_FromDouble(1.0);
    if (int_one == NULL || float_one == NULL)
        return NULL;

    PyObject *module = PyModule_Create(&cext_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "CORE_VERSION", CORE_VERSION) < 0 ||
        PyModule_AddObjectRef(module, "SchedulerBase",
                              (PyObject *)&Scheduler_Type) < 0 ||
        PyModule_AddObjectRef(module, "LinkPush",
                              (PyObject *)&LinkPush_Type) < 0 ||
        PyModule_AddObjectRef(module, "Relay", (PyObject *)&Relay_Type) < 0 ||
        PyModule_AddObjectRef(module, "SwitchEnter",
                              (PyObject *)&SwitchEnter_Type) < 0 ||
        PyModule_AddObjectRef(module, "UnorderedArrive",
                              (PyObject *)&UnorderedArrive_Type) < 0 ||
        PyModule_AddObjectRef(module, "UnorderedSend",
                              (PyObject *)&UnorderedSend_Type) < 0 ||
        PyModule_AddObjectRef(module, "OrderedSend",
                              (PyObject *)&OrderedSend_Type) < 0 ||
        chandlers_add_types(module) < 0 || issue_add_types(module) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
