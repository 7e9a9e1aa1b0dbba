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
 * keep working unchanged against a compiled scheduler.  Only the hot methods
 * are implemented in C; the cold ones (drain/reset/step/_compact/fire hooks)
 * are reused verbatim from the pure class by the Python subclass built in
 * repro/sim/scheduler.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include "_core.h"

#define CORE_VERSION "1.4.0"

/* Compaction threshold; mirrors _COMPACT_MIN_CANCELLED in scheduler.py. */
#define COMPACT_MIN_CANCELLED 64

/* Classes injected by repro.sim.scheduler via _init_classes(). */
static PyObject *EventClass = NULL;
static PyObject *SimulationErrorClass = NULL;

/* Interned attribute names (module-lifetime). */
static PyObject *str_cancelled;
static PyObject *str__scheduler;
static PyObject *str_callback;
static PyObject *str_label;
static PyObject *str__compact;
static PyObject *str_size_bytes;
static PyObject *str__busy_until;
static PyObject *str__busy_total;
static PyObject *str__messages;
static PyObject *str__bytes;
static PyObject *str_occupancy_cycles;
static PyObject *str__occupancy_cache;
static PyObject *str__period_start;
static PyObject *str__period_prefix;
static PyObject *empty_string;

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
    long long cancelled;
    long long compact_watermark;
    PyObject *active_time;       /* int while draining a bucket, else None */
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
    self->cancelled = 0;
    self->compact_watermark = COMPACT_MIN_CANCELLED;
    Py_XSETREF(self->active_time, Py_NewRef(Py_None));
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
    Py_VISIT(self->active_time);
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
    Py_CLEAR(self->active_time);
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
    {"_cancelled", T_LONGLONG, offsetof(SchedulerObject, cancelled), 0, NULL},
    {"_compact_watermark", T_LONGLONG,
     offsetof(SchedulerObject, compact_watermark), 0, NULL},
    {"_active_time", T_OBJECT_EX, offsetof(SchedulerObject, active_time), 0,
     NULL},
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
 * when the timestamp is new.  Mirrors Scheduler._push. */
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
raise_before_now(SchedulerObject *self, PyObject *label, long long t)
{
    PyErr_Format(SimulationErrorClass != NULL ? SimulationErrorClass
                                              : PyExc_RuntimeError,
                 "cannot schedule event %R at %lld before current time %lld",
                 label, t, self->now);
    return NULL;
}

static PyObject *
raise_negative_delay(long long delay)
{
    PyErr_Format(SimulationErrorClass != NULL ? SimulationErrorClass
                                              : PyExc_RuntimeError,
                 "delay must be non-negative, got %lld", delay);
    return NULL;
}

static PyObject *
Scheduler__push(SchedulerObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_push expects (time, entry)");
        return NULL;
    }
    if (push_entry(self, args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
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
Scheduler_schedule_at_fast(SchedulerObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at_fast expects (time, callback[, label])");
        return NULL;
    }
    PyObject *label = nargs == 3 ? args[2] : empty_string;
    long long t = PyLong_AsLongLong(args[0]);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    if (t < self->now)
        return raise_before_now(self, label, t);
    if (push_fast(self, args[0], args[1], label, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
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
Scheduler_schedule_at_fast1(SchedulerObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    if (nargs < 3 || nargs > 4) {
        PyErr_SetString(
            PyExc_TypeError,
            "schedule_at_fast1 expects (time, callback, arg[, label])");
        return NULL;
    }
    PyObject *label = nargs == 4 ? args[3] : empty_string;
    long long t = PyLong_AsLongLong(args[0]);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    if (t < self->now)
        return raise_before_now(self, label, t);
    if (push_fast(self, args[0], args[1], label, args[2]) < 0)
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

/* schedule_at(time, callback, label="") -> Event.  Cold relative to the fast
 * paths but still frequent enough to keep in C. */
static PyObject *
schedule_event(SchedulerObject *self, PyObject *time_obj, long long t,
               PyObject *callback, PyObject *label)
{
    if (EventClass == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro._core._cext not initialised "
                        "(_init_classes was never called)");
        return NULL;
    }
    if (t < self->now)
        return raise_before_now(self, label, t);
    PyObject *seq = PyLong_FromLongLong(self->sequence);
    if (seq == NULL)
        return NULL;
    self->sequence += 1;
    PyObject *event = PyObject_CallFunctionObjArgs(EventClass, time_obj, seq,
                                                   callback, label, NULL);
    if (event == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    if (PyObject_SetAttr(event, str__scheduler, (PyObject *)self) < 0) {
        Py_DECREF(seq);
        Py_DECREF(event);
        return NULL;
    }
    PyObject *entry = PyTuple_Pack(3, time_obj, seq, event);
    Py_DECREF(seq);
    if (entry == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    int rc = push_entry(self, time_obj, entry);
    Py_DECREF(entry);
    if (rc < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return event;
}

static PyObject *
Scheduler_schedule_at(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "callback", "label", NULL};
    PyObject *time_obj, *callback, *label = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist, &time_obj,
                                     &callback, &label))
        return NULL;
    if (label == NULL)
        label = empty_string;
    long long t = PyLong_AsLongLong(time_obj);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    return schedule_event(self, time_obj, t, callback, label);
}

static PyObject *
Scheduler_schedule_after(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"delay", "callback", "label", NULL};
    PyObject *delay_obj, *callback, *label = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist, &delay_obj,
                                     &callback, &label))
        return NULL;
    if (label == NULL)
        label = empty_string;
    long long delay = PyLong_AsLongLong(delay_obj);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0)
        return raise_negative_delay(delay);
    long long t = self->now + delay;
    PyObject *time_obj = PyLong_FromLongLong(t);
    if (time_obj == NULL)
        return NULL;
    PyObject *event = schedule_event(self, time_obj, t, callback, label);
    Py_DECREF(time_obj);
    return event;
}

/* Lazy-cancellation accounting; mirrors Scheduler._note_cancel including the
 * geometric compaction watermark.  _compact is looked up through the instance
 * so the Python subclass's implementation (shared with the pure class) runs. */
static PyObject *
Scheduler__note_cancel(SchedulerObject *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled += 1;
    if (self->cancelled >= self->compact_watermark) {
        long long total = 0;
        Py_ssize_t pos = 0;
        PyObject *key, *value;
        while (PyDict_Next(self->buckets, &pos, &key, &value)) {
            if (PyList_Check(value))
                total += PyList_GET_SIZE(value);
            else {
                Py_ssize_t n = PyObject_Length(value);
                if (n < 0)
                    return NULL;
                total += n;
            }
        }
        if (self->cancelled * 2 > total) {
            PyObject *res =
                PyObject_CallMethodNoArgs((PyObject *)self, str__compact);
            if (res == NULL)
                return NULL;
            Py_DECREF(res);
        }
        long long watermark = self->cancelled * 2;
        self->compact_watermark = watermark > COMPACT_MIN_CANCELLED
                                      ? watermark
                                      : COMPACT_MIN_CANCELLED;
    }
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
            continue; /* stale timestamp (bucket compacted/exhausted) */
        }
        Py_INCREF(bucket);
        long long time_ll = PyLong_AsLongLong(time_obj);
        if (time_ll == -1 && PyErr_Occurred()) {
            Py_DECREF(bucket);
            Py_DECREF(time_obj);
            status = -1;
            break;
        }
        /* Mark the bucket active before any user code can run (see the pure
         * implementation's comment about compaction racing the drain). */
        Py_XSETREF(self->active_time, Py_NewRef(time_obj));
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
            Py_ssize_t esize;
            if (PyTuple_Check(entry))
                esize = PyTuple_GET_SIZE(entry);
            else {
                esize = PyObject_Length(entry);
                if (esize < 0) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
            }
            PyObject *event = NULL;
            if (esize == 3) {
                event = PyTuple_Check(entry) ? PyTuple_GET_ITEM(entry, 2)
                                             : NULL;
                if (event == NULL) {
                    event = PySequence_GetItem(entry, 2);
                    if (event == NULL) {
                        Py_DECREF(entry);
                        failed = 1;
                        break;
                    }
                    Py_DECREF(event); /* entry keeps it alive */
                }
                PyObject *flag = PyObject_GetAttr(event, str_cancelled);
                if (flag == NULL) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                int cancelled = PyObject_IsTrue(flag);
                Py_DECREF(flag);
                if (cancelled < 0) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                if (cancelled) {
                    if (PyObject_SetAttr(event, str__scheduler, Py_None) < 0) {
                        Py_DECREF(entry);
                        failed = 1;
                        break;
                    }
                    self->cancelled -= 1;
                    index += 1;
                    Py_DECREF(entry);
                    continue;
                }
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
            PyObject *result;
            if (esize == 3) {
                if (PyObject_SetAttr(event, str__scheduler, Py_None) < 0) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                PyObject *callback = PyObject_GetAttr(event, str_callback);
                if (callback == NULL) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                result = PyObject_CallNoArgs(callback);
                Py_DECREF(callback);
                if (result == NULL) {
                    Py_DECREF(entry);
                    failed = 1;
                    break;
                }
                Py_DECREF(result);
                fired += 1;
                if (on_fire != NULL) {
                    PyObject *label = PyObject_GetAttr(event, str_label);
                    if (label == NULL) {
                        Py_DECREF(entry);
                        failed = 1;
                        break;
                    }
                    PyObject *hooked = PyObject_CallFunctionObjArgs(
                        on_fire, time_obj, label, NULL);
                    Py_DECREF(label);
                    if (hooked == NULL) {
                        Py_DECREF(entry);
                        failed = 1;
                        break;
                    }
                    Py_DECREF(hooked);
                }
            }
            else {
                PyObject *callback = PyTuple_GET_ITEM(entry, 2);
                if (esize == 5)
                    result = PyObject_CallOneArg(callback,
                                                 PyTuple_GET_ITEM(entry, 4));
                else
                    result = PyObject_CallNoArgs(callback);
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
    Py_XSETREF(self->active_time, Py_NewRef(Py_None));
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
    {"_push", (PyCFunction)(void (*)(void))Scheduler__push, METH_FASTCALL,
     "Append entry to the bucket for time (creating it if new)."},
    {"schedule_at", (PyCFunction)(void (*)(void))Scheduler_schedule_at,
     METH_VARARGS | METH_KEYWORDS,
     "Schedule callback at absolute cycle time; returns an Event."},
    {"schedule_after", (PyCFunction)(void (*)(void))Scheduler_schedule_after,
     METH_VARARGS | METH_KEYWORDS,
     "Schedule callback delay cycles from now; returns an Event."},
    {"schedule_at_fast",
     (PyCFunction)(void (*)(void))Scheduler_schedule_at_fast, METH_FASTCALL,
     "Schedule a non-cancellable callback at absolute cycle time."},
    {"schedule_after_fast",
     (PyCFunction)(void (*)(void))Scheduler_schedule_after_fast, METH_FASTCALL,
     "Schedule a non-cancellable callback delay cycles from now."},
    {"schedule_at_fast1",
     (PyCFunction)(void (*)(void))Scheduler_schedule_at_fast1, METH_FASTCALL,
     "Fast-path schedule of callback(arg) at absolute cycle time."},
    {"schedule_after_fast1",
     (PyCFunction)(void (*)(void))Scheduler_schedule_after_fast1,
     METH_FASTCALL, "Fast-path schedule of callback(arg) after delay cycles."},
    {"_note_cancel", (PyCFunction)Scheduler__note_cancel, METH_NOARGS,
     "Lazy-cancellation accounting (called by Event.cancel)."},
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

/* ---------------------------------------------------------------- LinkPush
 *
 * The compiled form of link_push in repro/interconnect/link.py: the
 * unit-cost "occupy the incoming link, then push the delivery entry" closure
 * shared by the ordered network's arrival path and the unordered network's
 * delivery path.  Calling it with a message performs the inlined
 * EndpointLink.transmit plus the scheduler bucket push, all in C.  The link
 * stays the source of truth for its scalars (busy period, totals, counters:
 * read and written through attributes, so reset, the Python transmit path
 * and the busy-time queries observe every update); only the occupancy memo
 * dict is prebound, the same object the pure closure captures. */

typedef struct {
    PyObject_HEAD
    SchedulerObject *sched;
    PyObject *link;
    PyObject *occupancy; /* link._occupancy_cache (dict) */
    PyObject *deliver;   /* delivery callable */
    PyObject *label;     /* delivery label */
} LinkPushObject;

static int
LinkPush_init(LinkPushObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sched, *link, *deliver, *label;
    static char *kwlist[] = {"scheduler", "link", "deliver", "label", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO", kwlist, &sched,
                                     &link, &deliver, &label))
        return -1;
    if (!Scheduler_CheckExactBase(sched)) {
        PyErr_SetString(PyExc_TypeError,
                        "LinkPush requires a compiled SchedulerBase");
        return -1;
    }
    PyObject *occupancy = PyObject_GetAttr(link, str__occupancy_cache);
    if (occupancy == NULL)
        return -1;
    if (!PyDict_Check(occupancy)) {
        PyErr_SetString(PyExc_TypeError,
                        "link occupancy memo is not a dict");
        Py_DECREF(occupancy);
        return -1;
    }
    Py_INCREF(sched);
    Py_XSETREF(self->sched, (SchedulerObject *)sched);
    Py_INCREF(link);
    Py_XSETREF(self->link, link);
    Py_XSETREF(self->occupancy, occupancy);
    Py_INCREF(deliver);
    Py_XSETREF(self->deliver, deliver);
    Py_INCREF(label);
    Py_XSETREF(self->label, label);
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
    return 0;
}

static void
LinkPush_dealloc(LinkPushObject *self)
{
    PyObject_GC_UnTrack(self);
    LinkPush_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Read an int attribute as long long; -1 with error set on failure. */
static long long
get_ll_attr(PyObject *obj, PyObject *name, int *error)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL) {
        *error = 1;
        return -1;
    }
    long long result = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (result == -1 && PyErr_Occurred()) {
        *error = 1;
        return -1;
    }
    return result;
}

static int
set_ll_attr(PyObject *obj, PyObject *name, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return rc;
}

static PyObject *
LinkPush_call(LinkPushObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "LinkPush takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "LinkPush", 1, 1, &message))
        return NULL;
    SchedulerObject *sched = self->sched;
    PyObject *link = self->link;

    PyObject *size_obj = PyObject_GetAttr(message, str_size_bytes);
    if (size_obj == NULL)
        return NULL;
    /* Occupancy memo: size -> cycles, filled through the link method on a
     * miss (exactly like the pure closure, so the memo dict the reset path
     * clears is the one populated here). */
    PyObject *cycles_obj = PyDict_GetItemWithError(self->occupancy, size_obj);
    if (cycles_obj == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(size_obj);
            return NULL;
        }
        cycles_obj =
            PyObject_CallMethodOneArg(link, str_occupancy_cycles, size_obj);
        if (cycles_obj == NULL) {
            Py_DECREF(size_obj);
            return NULL;
        }
        if (PyDict_SetItem(self->occupancy, size_obj, cycles_obj) < 0) {
            Py_DECREF(size_obj);
            Py_DECREF(cycles_obj);
            return NULL;
        }
    }
    else
        Py_INCREF(cycles_obj);
    long long cycles = PyLong_AsLongLong(cycles_obj);
    Py_DECREF(cycles_obj);
    if (cycles == -1 && PyErr_Occurred()) {
        Py_DECREF(size_obj);
        return NULL;
    }
    int error = 0;
    PyObject *done_obj = NULL;
    long long busy_until = get_ll_attr(link, str__busy_until, &error);
    if (error)
        goto fail;
    long long busy_total = get_ll_attr(link, str__busy_total, &error);
    if (error)
        goto fail;
    long long now = sched->now;
    if (now > busy_until) {
        /* The link was idle: a new busy period opens. */
        if (set_ll_attr(link, str__period_start, now) < 0 ||
            set_ll_attr(link, str__period_prefix, busy_total) < 0)
            goto fail;
        busy_until = now;
    }
    long long done = busy_until + cycles;
    done_obj = PyLong_FromLongLong(done);
    if (done_obj == NULL)
        goto fail;
    if (PyObject_SetAttr(link, str__busy_until, done_obj) < 0)
        goto fail;
    if (set_ll_attr(link, str__busy_total, busy_total + cycles) < 0)
        goto fail;
    long long messages = get_ll_attr(link, str__messages, &error);
    if (error)
        goto fail;
    if (set_ll_attr(link, str__messages, messages + 1) < 0)
        goto fail;
    long long bytes = get_ll_attr(link, str__bytes, &error);
    if (error)
        goto fail;
    long long size = PyLong_AsLongLong(size_obj);
    if (size == -1 && PyErr_Occurred())
        goto fail;
    if (set_ll_attr(link, str__bytes, bytes + size) < 0)
        goto fail;
    Py_DECREF(size_obj);
    size_obj = NULL;
    /* Push the delivery entry (done, seq, deliver, label, message). */
    {
        PyObject *seq = PyLong_FromLongLong(sched->sequence);
        if (seq == NULL)
            goto fail;
        sched->sequence += 1;
        PyObject *entry = PyTuple_Pack(5, done_obj, seq, self->deliver,
                                       self->label, message);
        Py_DECREF(seq);
        if (entry == NULL)
            goto fail;
        int rc = push_entry(sched, done_obj, entry);
        Py_DECREF(entry);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(done_obj);
    Py_RETURN_NONE;

fail:
    Py_XDECREF(size_obj);
    Py_XDECREF(done_obj);
    return NULL;
}

static PyTypeObject LinkPush_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.LinkPush",
    .tp_basicsize = sizeof(LinkPushObject),
    .tp_dealloc = (destructor)LinkPush_dealloc,
    .tp_call = (ternaryfunc)LinkPush_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
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
    SchedulerObject *sched;
    long long delay;
    PyObject *callback;
    PyObject *label;
} RelayObject;

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
    Py_INCREF(sched);
    Py_XSETREF(self->sched, (SchedulerObject *)sched);
    self->delay = delay;
    Py_INCREF(callback);
    Py_XSETREF(self->callback, callback);
    Py_INCREF(label);
    Py_XSETREF(self->label, label);
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

/* `callback` is writable so relays can be chained into rings after
 * construction (the event-core benchmark measures the all-C hop ceiling
 * with a self-referential relay); `delay`/`label` are introspection aids. */
static PyMemberDef Relay_members[] = {
    {"callback", T_OBJECT_EX, offsetof(RelayObject, callback), 0,
     "entry callback pushed by each relay hop"},
    {"delay", T_LONGLONG, offsetof(RelayObject, delay), READONLY, NULL},
    {"label", T_OBJECT_EX, offsetof(RelayObject, label), READONLY, NULL},
    {NULL}
};

static PyObject *
Relay_call(RelayObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Relay takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "Relay", 1, 1, &message))
        return NULL;
    SchedulerObject *sched = self->sched;
    PyObject *time_obj = PyLong_FromLongLong(sched->now + self->delay);
    if (time_obj == NULL)
        return NULL;
    PyObject *seq = PyLong_FromLongLong(sched->sequence);
    if (seq == NULL) {
        Py_DECREF(time_obj);
        return NULL;
    }
    sched->sequence += 1;
    PyObject *entry = PyTuple_Pack(5, time_obj, seq, self->callback,
                                   self->label, message);
    Py_DECREF(seq);
    if (entry == NULL) {
        Py_DECREF(time_obj);
        return NULL;
    }
    int rc = push_entry(sched, time_obj, entry);
    Py_DECREF(entry);
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
    .tp_call = (ternaryfunc)Relay_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled fixed-delay relay closure (push now+delay entry).",
    .tp_traverse = (traverseproc)Relay_traverse,
    .tp_clear = (inquiry)Relay_clear,
    .tp_members = Relay_members,
    .tp_init = (initproc)Relay_init,
    .tp_new = PyType_GenericNew,
};

/* -------------------------------------------------------- module functions */

/* sched_push(scheduler, time, callback, label, message):
 * the networks' inline injection push as one C call. */
static PyObject *
cext_sched_push(PyObject *Py_UNUSED(module), PyObject *const *args,
                Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(
            PyExc_TypeError,
            "sched_push expects (scheduler, time, callback, label, message)");
        return NULL;
    }
    if (!Scheduler_CheckExactBase(args[0])) {
        PyErr_SetString(PyExc_TypeError,
                        "sched_push requires a compiled SchedulerBase");
        return NULL;
    }
    SchedulerObject *sched = (SchedulerObject *)args[0];
    PyObject *seq = PyLong_FromLongLong(sched->sequence);
    if (seq == NULL)
        return NULL;
    sched->sequence += 1;
    PyObject *entry =
        PyTuple_Pack(5, args[1], seq, args[2], args[3], args[4]);
    Py_DECREF(seq);
    if (entry == NULL)
        return NULL;
    int rc = push_entry(sched, args[1], entry);
    Py_DECREF(entry);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* fanout_push(scheduler, time, fanout, message):
 * the ordered network's switch fan-out — resolve the bucket once and append
 * one (time, seq, callback, label, message) entry per (callback, label)
 * pair, in order. */
static PyObject *
cext_fanout_push(PyObject *Py_UNUSED(module), PyObject *const *args,
                 Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "fanout_push expects (scheduler, time, fanout, "
                        "message)");
        return NULL;
    }
    if (!Scheduler_CheckExactBase(args[0])) {
        PyErr_SetString(PyExc_TypeError,
                        "fanout_push requires a compiled SchedulerBase");
        return NULL;
    }
    SchedulerObject *sched = (SchedulerObject *)args[0];
    PyObject *time_obj = args[1];
    PyObject *fanout = args[2];
    PyObject *message = args[3];
    if (!PyTuple_Check(fanout)) {
        PyErr_SetString(PyExc_TypeError, "fanout must be a tuple");
        return NULL;
    }
    PyObject *bucket = PyDict_GetItemWithError(sched->buckets, time_obj);
    int fresh = 0;
    if (bucket == NULL) {
        if (PyErr_Occurred())
            return NULL;
        bucket = PyList_New(0);
        if (bucket == NULL)
            return NULL;
        if (PyDict_SetItem(sched->buckets, time_obj, bucket) < 0) {
            Py_DECREF(bucket);
            return NULL;
        }
        if (heap_push(sched->times, time_obj) < 0) {
            Py_DECREF(bucket);
            return NULL;
        }
        fresh = 1;
    }
    else
        Py_INCREF(bucket);
    Py_ssize_t count = PyTuple_GET_SIZE(fanout);
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *pair = PyTuple_GET_ITEM(fanout, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "fanout entries must be (callback, label) pairs");
            Py_DECREF(bucket);
            return NULL;
        }
        PyObject *seq = PyLong_FromLongLong(sched->sequence);
        if (seq == NULL) {
            Py_DECREF(bucket);
            return NULL;
        }
        sched->sequence += 1;
        PyObject *entry =
            PyTuple_Pack(5, time_obj, seq, PyTuple_GET_ITEM(pair, 0),
                         PyTuple_GET_ITEM(pair, 1), message);
        Py_DECREF(seq);
        if (entry == NULL) {
            Py_DECREF(bucket);
            return NULL;
        }
        int rc = PyList_Append(bucket, entry);
        Py_DECREF(entry);
        if (rc < 0) {
            Py_DECREF(bucket);
            return NULL;
        }
    }
    Py_DECREF(bucket);
    (void)fresh;
    Py_RETURN_NONE;
}

/* _init_classes(Event, SimulationError): inject the Python classes the
 * extension needs.  Called by repro.sim.scheduler right after import. */
static PyObject *
cext_init_classes(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *event_class, *error_class;
    if (!PyArg_ParseTuple(args, "OO", &event_class, &error_class))
        return NULL;
    Py_INCREF(event_class);
    Py_XSETREF(EventClass, event_class);
    Py_INCREF(error_class);
    Py_XSETREF(SimulationErrorClass, error_class);
    Py_RETURN_NONE;
}

static PyMethodDef cext_methods[] = {
    {"sched_push", (PyCFunction)(void (*)(void))cext_sched_push,
     METH_FASTCALL,
     "Push one (time, seq, callback, label, message) fast-path entry."},
    {"fanout_push", (PyCFunction)(void (*)(void))cext_fanout_push,
     METH_FASTCALL,
     "Append a whole fan-out of fast-path entries to one bucket."},
    {"_init_classes", cext_init_classes, METH_VARARGS,
     "Inject the Event and SimulationError classes."},
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
        PyType_Ready(&LinkPush_Type) < 0 || PyType_Ready(&Relay_Type) < 0)
        return NULL;

#define INTERN(var, text)                                                      \
    do {                                                                       \
        var = PyUnicode_InternFromString(text);                                \
        if (var == NULL)                                                       \
            return NULL;                                                       \
    } while (0)

    INTERN(str_cancelled, "cancelled");
    INTERN(str__scheduler, "_scheduler");
    INTERN(str_callback, "callback");
    INTERN(str_label, "label");
    INTERN(str__compact, "_compact");
    INTERN(str_size_bytes, "size_bytes");
    INTERN(str__busy_until, "_busy_until");
    INTERN(str__busy_total, "_busy_total");
    INTERN(str__messages, "_messages");
    INTERN(str__bytes, "_bytes");
    INTERN(str_occupancy_cycles, "occupancy_cycles");
    INTERN(str__occupancy_cache, "_occupancy_cache");
    INTERN(str__period_start, "_period_start");
    INTERN(str__period_prefix, "_period_prefix");
#undef INTERN
    empty_string = PyUnicode_InternFromString("");
    if (empty_string == NULL)
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
        chandlers_add_types(module) < 0 || issue_add_types(module) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
