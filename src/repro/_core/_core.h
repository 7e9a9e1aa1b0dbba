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
#include <structmember.h>

/* Register DataDeliver/SnoopDeliver/DirDeliver/BashSample and
 * _init_protocol on the extension module.  Returns 0 on success, -1 with an
 * exception set. */
int chandlers_add_types(PyObject *module);

/* Register SequencerStep/MemServe/DirHome/ZipfTable on the extension module.
 * Returns 0 on success, -1 with an exception set. */
int issue_add_types(PyObject *module);

/* Protocol singletons, defined in _chandlers.c and injected once through
 * _init_protocol() (repro.protocols.dispatch calls it): the MessageType,
 * MOSIState and DestinationUnit members the pure code compares by identity
 * (`is` tests, object.__hash__), so pointer equality is the faithful
 * mirror; Message.__init__'s default recipients frozenset, so a recycled
 * message gets the very object a pure construction would; and
 * MEMORY_OWNER.  The objects are NULL until injected. */
extern PyObject *MT_GETS, *MT_GETM, *MT_PUTM, *MT_DATA, *MT_MARKER;
extern PyObject *MT_FWD_GETS, *MT_FWD_GETM;
extern PyObject *ST_MODIFIED, *ST_OWNED, *ST_SHARED, *ST_INVALID;
extern PyObject *DU_CACHE_U, *DU_MEMORY_U, *EMPTY_RECIPIENTS;
extern long long MEMORY_OWNER_ID;

/* 1 when the singletons are injected, else 0 with RuntimeError set (every
 * protocol object's constructor checks, so a missed call fails loudly). */
static inline int
protocol_injected(void)
{
    if (MT_GETS == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "protocol members not injected; call _init_protocol() "
                        "before constructing compiled protocol objects");
        return 0;
    }
    return 1;
}

/* One controller's DATA reply (_issue.c): MemoryControllerBase._send_data
 * or CacheControllerBase._send_data plus the schedule_after_fast1 push,
 * through the MemServe object `serve` built for that controller.  1 when
 * the controller's latency is not a non-negative int (nothing changed:
 * the caller delegates to the Python handler), 0 sent, -1 error. */
int issue_send_data(PyObject *serve, PyObject *address, PyObject *dest,
                    PyObject *data_token, PyObject *transaction_id);

/* The home memory's DATA reply for a memory-owned line (_chandlers.c's
 * home_serve): issue_send_data plus the memory_responses count.  Same
 * return values. */
int issue_mem_serve(PyObject *serve, PyObject *message, PyObject *entry);

/* Type test for the data-serve kwargs (_chandlers.c validates them). */
int issue_is_memserve(PyObject *op);

/* Event-core services exported by _cext.c to the other units. */
int core_scheduler_check(PyObject *op);
long long core_scheduler_now(PyObject *scheduler);
int core_push_fast(PyObject *scheduler, long long time, PyObject *callback,
                   PyObject *label, PyObject *arg);

/* ------------------------------------------------------------ vectorcall
 *
 * Every object the scheduler fires is called through vectorcall: the
 * instance stores its entry in a `vectorcall` field named by
 * tp_vectorcall_offset, and tp_call is PyVectorcall_Call, so a call with a
 * tuple reaches the same entry.  An entry rejects keywords and any other
 * arity before touching state. */

static inline int
vectorcall_args(const char *name, size_t nargsf, PyObject *kwnames,
                Py_ssize_t expected)
{
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0) {
        PyErr_Format(PyExc_TypeError, "%s takes no keyword arguments", name);
        return 0;
    }
    if (PyVectorcall_NARGS(nargsf) != expected) {
        PyErr_Format(PyExc_TypeError, "%s expected %zd argument%s, got %zd",
                     name, expected, expected == 1 ? "" : "s",
                     PyVectorcall_NARGS(nargsf));
        return 0;
    }
    return 1;
}

/* --------------------------------------------------------- attribute helpers */

/* Truth value of an attribute; -1 with error set, else 0/1. */
static inline int
attr_truth(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int result = PyObject_IsTrue(value);
    Py_DECREF(value);
    return result;
}

/* Read an int attribute as long long; sets *error on failure. */
static inline long long
attr_ll(PyObject *obj, PyObject *name, int *error)
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

/* Call callable(arg), discarding the result; 0 / -1. */
static inline int
call_discard1(PyObject *callable, PyObject *arg)
{
    PyObject *result = PyObject_CallOneArg(callable, arg);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* ----------------------------------------------------------- slot access
 *
 * The Python state the compiled objects read on every call lives in
 * __slots__ classes, so fields are read and written straight through the
 * offsets the classes' member descriptors publish -- the same cells the
 * descriptors themselves access. */

#define SLOT_CELL(obj, offset) ((PyObject **)((char *)(obj) + (offset)))

/* Most slots any one layout resolves. */
#define SLOT_LAYOUT_MAX 16

/* One class's resolved slot offsets for a fixed list of names.  The
 * resolution is reused while the class is the same object and unmodified
 * (its type version tag, which any class-level assignment resets, is
 * unchanged), so offsets are looked up once per class, not per object. */
typedef struct {
    PyTypeObject *cls;  /* strong reference, or NULL when unresolved */
    unsigned int version;
    Py_ssize_t offsets[SLOT_LAYOUT_MAX];
} SlotLayout;

/* The byte offset of the writable object slot `name` of `cls`; -1 when
 * the class attribute is anything else (no error set), or -1 with an
 * error set when the lookup itself failed. */
static inline Py_ssize_t
slot_offset(PyTypeObject *cls, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)cls, name);
    if (descr == NULL) {
        if (PyErr_ExceptionMatches(PyExc_AttributeError))
            PyErr_Clear();
        return -1;
    }
    Py_ssize_t offset = -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY))
            offset = member->offset;
    }
    Py_DECREF(descr);
    return offset;
}

/* Resolve `names` as writable object slots of `cls` into `layout`: 1 when
 * every name is one, 0 when some name is not (no error set), -1 on error. */
static inline int
slot_layout(SlotLayout *layout, PyTypeObject *cls, PyObject *const *names,
            int count)
{
    if (layout->cls == cls && layout->version != 0 &&
        cls->tp_version_tag == layout->version)
        return 1;
    Py_CLEAR(layout->cls);
    for (int i = 0; i < count; i++) {
        layout->offsets[i] = slot_offset(cls, names[i]);
        if (layout->offsets[i] < 0)
            return PyErr_Occurred() ? -1 : 0;
    }
    /* The lookups above gave the class a version tag; zero means the
     * interpreter could not, and the next call resolves afresh. */
    layout->version = cls->tp_version_tag;
    layout->cls = (PyTypeObject *)Py_NewRef(cls);
    return 1;
}

/* As slot_layout(), raising TypeError naming the class when a name is
 * not a writable object slot. */
static inline int
slot_layout_required(SlotLayout *layout, PyTypeObject *cls,
                     PyObject *const *names, int count)
{
    int rc = slot_layout(layout, cls, names, count);
    if (rc == 0)
        PyErr_Format(PyExc_TypeError,
                     "%R does not keep its fields in writable object slots",
                     (PyObject *)cls);
    return rc == 1 ? 0 : -1;
}

/* An int slot as long long; 0 when unset, not an exact int or too big. */
static inline int
slot_ll(PyObject *obj, Py_ssize_t offset, long long *out)
{
    PyObject *value = *SLOT_CELL(obj, offset);
    if (value == NULL || !PyLong_CheckExact(value))
        return 0;
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(value, &overflow);
    return !overflow;
}

/* A float slot; 0 when unset or not an exact float. */
static inline int
slot_double(PyObject *obj, Py_ssize_t offset, double *out)
{
    PyObject *value = *SLOT_CELL(obj, offset);
    if (value == NULL || !PyFloat_CheckExact(value))
        return 0;
    *out = PyFloat_AS_DOUBLE(value);
    return 1;
}

/* Store a new reference (stolen; NULL is an error passed through). */
static inline int
slot_store(PyObject *obj, Py_ssize_t offset, PyObject *value)
{
    if (value == NULL)
        return -1;
    PyObject **cell = SLOT_CELL(obj, offset);
    PyObject *old = *cell;
    *cell = value;
    Py_XDECREF(old);
    return 0;
}

/* --------------------------------------------------------------- Message
 *
 * The fields of repro.interconnect.message.Message the compiled objects
 * read.  _init_message(Message) (_cext.c) resolves their slots; a message
 * whose type is exactly that class, unmodified since, is read by slot,
 * anything else through generic attribute access. */

enum {
    MSG_MSG_TYPE,
    MSG_SRC,
    MSG_ADDRESS,
    MSG_SIZE_BYTES,
    MSG_REQUESTER,
    MSG_DEST,
    MSG_DEST_UNIT,
    MSG_RECIPIENTS,
    MSG_TRANSACTION_ID,
    MSG_IS_RETRY,
    MSG_ORIGINAL_TYPE,
    MSG_ORDER_SEQ,
    MSG_DATA_TOKEN,
    MSG_IS_BROADCAST,
    MSG_FIELDS
};

extern SlotLayout core_message_layout;
extern PyObject *core_message_names[MSG_FIELDS];

/* Is `message` exactly the stock Message, its class unmodified? */
static inline int
core_is_message(PyObject *message)
{
    PyTypeObject *cls = core_message_layout.cls;
    return cls != NULL && Py_IS_TYPE(message, cls) &&
           cls->tp_version_tag == core_message_layout.version;
}

/* message.<field> as a new reference, NULL with an error set. */
static inline PyObject *
message_get(PyObject *message, int field)
{
    if (core_is_message(message)) {
        PyObject *value =
            *SLOT_CELL(message, core_message_layout.offsets[field]);
        if (value != NULL)
            return Py_NewRef(value);
    }
    return PyObject_GetAttr(message, core_message_names[field]);
}

/* message.<field> = value; 0 / -1. */
static inline int
message_set(PyObject *message, int field, PyObject *value)
{
    if (core_is_message(message))
        return slot_store(message, core_message_layout.offsets[field],
                          Py_NewRef(value));
    return PyObject_SetAttr(message, core_message_names[field], value);
}

/* ---------------------------------------------------------- stock classes
 *
 * The stock Counter, RunningMean and CacheBlock classes and
 * Component.count, injected by _init_stock() (_cext.c) whenever they are
 * unpatched.  A counter or mean whose type is exactly the injected class,
 * unmodified since, is updated through its slots (and a CacheBlock built
 * through them); anything else goes through the Python methods, so a
 * patched or subclassed class keeps the pure path. */

enum { COUNTER_COUNT, COUNTER_SLOTS };
enum { MEAN_COUNT, MEAN_TOTAL, MEAN_MEAN, MEAN_M2, MEAN_MINIMUM, MEAN_MAXIMUM,
       MEAN_SLOTS };
enum { BLOCK_ADDRESS, BLOCK_STATE, BLOCK_DATA_TOKEN, BLOCK_TRACKED_SHARERS,
       BLOCK_LAST_ACCESS_TIME, BLOCK_SLOTS };

extern SlotLayout core_counter_layout;
extern SlotLayout core_mean_layout;
extern SlotLayout core_block_layout;
extern PyObject *core_count_function; /* Component.count, or NULL */
extern PyObject *core_s_count;        /* "count" */
extern PyObject *core_s_counter_cache; /* "_counter_cache" */
extern PyObject *core_s_record;       /* "record" */

/* Integers a double holds exactly: int/int true division and int*float
 * products equal their C double forms only inside this range. */
#define EXACT_DOUBLE_INT (1LL << 53)

/* Is `obj` exactly the class `layout` resolved, unmodified since? */
static inline int
layout_current(const SlotLayout *layout, PyObject *obj)
{
    PyTypeObject *cls = layout->cls;
    return cls != NULL && Py_IS_TYPE(obj, cls) &&
           cls->tp_version_tag == layout->version;
}

/* counter._count += 1 on a stock Counter holding a plain int: 1 done, 0
 * when the counter is anything else (nothing changed), -1 error. */
static inline int
counter_bump_slot(PyObject *counter)
{
    long long count;
    if (!layout_current(&core_counter_layout, counter) ||
        !slot_ll(counter, core_counter_layout.offsets[COUNTER_COUNT],
                 &count) ||
        count == LLONG_MAX)
        return 0;
    return slot_store(counter, core_counter_layout.offsets[COUNTER_COUNT],
                      PyLong_FromLongLong(count + 1)) < 0
               ? -1
               : 1;
}

/* counter._count += 1 for a prebound counter handle of any shape. */
static inline int
counter_bump(PyObject *counter, PyObject *count_name)
{
    int rc = counter_bump_slot(counter);
    if (rc != 0)
        return rc < 0 ? -1 : 0;
    PyObject *current = PyObject_GetAttr(counter, count_name);
    if (current == NULL)
        return -1;
    PyObject *one = PyLong_FromLong(1);
    PyObject *next = one == NULL ? NULL : PyNumber_Add(current, one);
    Py_XDECREF(one);
    Py_DECREF(current);
    if (next == NULL)
        return -1;
    rc = PyObject_SetAttr(counter, count_name, next);
    Py_DECREF(next);
    return rc;
}

/* component.count(name): when the component's class still resolves
 * `count` to the stock Component.count, a stock Counter already in the
 * component's _counter_cache is bumped by slot; a cache miss, an odd
 * counter or a patched method calls count() itself, which fills the
 * cache.  Component.reset_stat_caches clears that dict in place, so no
 * counter outlives the registry reset that pruned it.  0 / -1. */
static inline int
count_stat(PyObject *component, PyObject *name)
{
    if (core_count_function != NULL &&
        _PyType_Lookup(Py_TYPE(component), core_s_count) ==
            core_count_function) {
        PyObject *cache = PyObject_GetAttr(component, core_s_counter_cache);
        if (cache == NULL)
            return -1;
        int rc = 0;
        if (PyDict_CheckExact(cache)) {
            PyObject *counter = PyDict_GetItemWithError(cache, name);
            if (counter != NULL)
                rc = counter_bump_slot(counter);
            else if (PyErr_Occurred())
                rc = -1;
        }
        Py_DECREF(cache);
        if (rc != 0)
            return rc < 0 ? -1 : 0;
    }
    PyObject *result = PyObject_CallMethodOneArg(component, core_s_count, name);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* A RunningMean's fields. */
typedef struct {
    long long count;
    double total, mean, m2, minimum, maximum;
} MeanFields;

/* A float slot, or an int slot a double holds exactly; 0 otherwise. */
static inline int
slot_real(PyObject *obj, Py_ssize_t offset, double *out)
{
    long long value;
    if (slot_double(obj, offset, out))
        return 1;
    if (!slot_ll(obj, offset, &value) || value <= -EXACT_DOUBLE_INT ||
        value >= EXACT_DOUBLE_INT)
        return 0;
    *out = (double)value;
    return 1;
}

/* Read a RunningMean (its slots at `slots`) whose state RunningMean.record
 * can update in C: an int count, float accumulators and extrema that are
 * floats or exactly representable ints; 0 for anything else. */
static inline int
mean_read(const Py_ssize_t *slots, PyObject *mean, MeanFields *fields)
{
    return slot_ll(mean, slots[MEAN_COUNT], &fields->count) &&
           fields->count >= 0 && fields->count + 1 < EXACT_DOUBLE_INT &&
           slot_double(mean, slots[MEAN_TOTAL], &fields->total) &&
           slot_double(mean, slots[MEAN_MEAN], &fields->mean) &&
           slot_double(mean, slots[MEAN_M2], &fields->m2) &&
           slot_real(mean, slots[MEAN_MINIMUM], &fields->minimum) &&
           slot_real(mean, slots[MEAN_MAXIMUM], &fields->maximum);
}

/* RunningMean.record(value) (Welford), on a mean mean_read() accepted
 * (read afresh, so one object passed twice records twice).  `boxed` is
 * the recorded Python value, stored as the new minimum or maximum exactly
 * as the pure method stores it; NULL boxes `value` as a float.  An int
 * value must lie inside EXACT_DOUBLE_INT, where every step below equals
 * Python's int/float arithmetic.  0 / -1. */
static inline int
mean_record(const Py_ssize_t *slots, PyObject *mean, double value,
            PyObject *boxed)
{
    MeanFields fields;
    mean_read(slots, mean, &fields);
    fields.count += 1;
    fields.total += value;
    double delta = value - fields.mean;
    fields.mean += delta / (double)fields.count;
    fields.m2 += delta * (value - fields.mean);
    if (slot_store(mean, slots[MEAN_COUNT], PyLong_FromLongLong(fields.count)) <
            0 ||
        slot_store(mean, slots[MEAN_TOTAL], PyFloat_FromDouble(fields.total)) <
            0 ||
        slot_store(mean, slots[MEAN_MEAN], PyFloat_FromDouble(fields.mean)) <
            0 ||
        slot_store(mean, slots[MEAN_M2], PyFloat_FromDouble(fields.m2)) < 0)
        return -1;
    if (value < fields.minimum &&
        slot_store(mean, slots[MEAN_MINIMUM],
                   boxed != NULL ? Py_NewRef(boxed)
                                 : PyFloat_FromDouble(value)) < 0)
        return -1;
    if (value > fields.maximum &&
        slot_store(mean, slots[MEAN_MAXIMUM],
                   boxed != NULL ? Py_NewRef(boxed)
                                 : PyFloat_FromDouble(value)) < 0)
        return -1;
    return 0;
}

/* mean.record(value) for an int value: by slot on a stock RunningMean
 * mean_read() accepts, else through the method.  0 / -1. */
static inline int
mean_record_int(PyObject *mean, PyObject *value)
{
    MeanFields unused;
    long long raw = 0;
    int overflow = 1;
    if (PyLong_CheckExact(value))
        raw = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (!overflow && raw > -EXACT_DOUBLE_INT && raw < EXACT_DOUBLE_INT &&
        layout_current(&core_mean_layout, mean) &&
        mean_read(core_mean_layout.offsets, mean, &unused))
        return mean_record(core_mean_layout.offsets, mean, (double)raw, value);
    PyObject *result = PyObject_CallMethodOneArg(mean, core_s_record, value);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

#endif /* REPRO_CORE_H */
