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

#endif /* REPRO_CORE_H */
