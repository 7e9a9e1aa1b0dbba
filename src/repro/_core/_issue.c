/* Compiled request-issue chain: the per-memory-reference fast path behind
 * the repro._core backend seam.
 *
 * Contract: bit-identical observable behaviour with the pure-Python
 * reference implementation — Sequencer._perform/_fetch_next in
 * repro/system/sequencer.py, CacheControllerBase.issue_request /
 * issue_writeback in repro/protocols/base.py, the protocol _send_request /
 * _send_writeback bodies, and MemoryControllerBase._send_data.  The pure
 * classes remain the executable specification; the SequencerStep delivery
 * object runs the whole hit/miss/evict/issue/reschedule chain in C for the
 * common case and delegates to the stored bound Python _perform — before
 * any C-side mutation — whenever it meets anything unusual (non-int
 * addresses, customised block shapes, odd sharer containers).  Because
 * delegation happens with the whole operation and zero prior side effects,
 * the Python method redoes its read-only checks and takes over exactly
 * where the pure path would have been.
 *
 * Sends go through the controller's own bound _ordered_send /
 * _unordered_send, the callable the pure _send_request/_send_writeback
 * call: the network's compiled OrderedSend/UnorderedSend on a stock
 * network, its Python send otherwise.  The step builds the message as the
 * pure body does and hands it over; the network does the rest.
 * Transaction/Message allocation pops the SimulationArena's free lists
 * directly (the same `_transactions`/`_messages` lists the pure
 * arena.message/arena.transaction pop) and re-initialises every field
 * exactly as the dataclass __init__ would.
 *
 * The same message builder serves the reply side: MemServe is one
 * controller's DATA reply (_send_data), and DirHome the Directory home's
 * GETS/GETM entry with its memory reply, marker and forward.
 *
 * For a stock stationary TrafficWorkload or LockingMicrobenchmark the step
 * is also the workload (source modes 1 and 2): it makes the next
 * MemoryOperation and counts each completion itself -- the pure
 * next_operation/on_complete in repro/workloads/traffic.py and
 * microbenchmark.py -- drawing from the workload's own random.Random
 * through its C random/getrandbits and updating the workload's own
 * _issued/_completed/_last_lock dicts.  Because every draw and count lands
 * on that shared state, the Python methods (the first fetch in
 * Sequencer.start, a bail, a declined neighbour on the same RNG) continue
 * the very same stream.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include "_core.h"

/* Interned attribute / counter names (module lifetime). */
static PyObject *s_address;
static PyObject *s_is_write;
static PyObject *s_think_cycles;
static PyObject *s_instructions;
static PyObject *s_state;
static PyObject *s_last_access_time;
static PyObject *s_data_token;
static PyObject *s_tracked_sharers;
static PyObject *s_kind;
static PyObject *s_requester;
static PyObject *s_issue_time;
static PyObject *s_store_token;
static PyObject *s_expects_data;
static PyObject *s_was_broadcast;
static PyObject *s_completion_callback;
static PyObject *s_transaction_id;
static PyObject *s_marker_seen;
static PyObject *s_effective_order_seq;
static PyObject *s_data_received;
static PyObject *s_received_token;
static PyObject *s_completed;
static PyObject *s_completion_time;
static PyObject *s_deferred;
static PyObject *s_invalidate_seqs;
static PyObject *s_ownership_passed;
static PyObject *s_retries_observed;
static PyObject *s_nacked;
static PyObject *s_reissued_as_broadcast;
static PyObject *s_context;
static PyObject *s_msg_type;
static PyObject *s_src;
static PyObject *s_size_bytes;
static PyObject *s_dest;
static PyObject *s_dest_unit;
static PyObject *s_recipients;
static PyObject *s_is_broadcast;
static PyObject *s_is_retry;
static PyObject *s_retry_count;
static PyObject *s_original_type;
static PyObject *s_order_seq;
static PyObject *s_msg_id;
static PyObject *s_hits;
static PyObject *s_misses;
static PyObject *s_operations_completed;
static PyObject *s__store_tokens;
static PyObject *s__count;
static PyObject *s_complete;
static PyObject *s__dram_latency;
static PyObject *n_writebacks;
static PyObject *n_evictions_writeback;
static PyObject *n_evictions_silent;
static PyObject *n_broadcast_requests;
static PyObject *n_unicast_requests;
static PyObject *n_broadcast_decisions;
static PyObject *n_unicast_decisions;
static PyObject *s__state;
static PyObject *s__value;
static PyObject *s__broadcasts;
static PyObject *s__unicasts;
static PyObject *s_lfsr;
static PyObject *s_policy_counter;
static PyObject *s__tap_shifts;
static PyObject *s__mask;
static PyObject *s__width;
static PyObject *s__bits;
static PyObject *n_data_responses;
static PyObject *n_memory_responses;
static PyObject *n_forwards;
static PyObject *s__cache_response_latency;
static PyObject *s_owner;
static PyObject *s_sharers;
static PyObject *s_label;
static PyObject *s_random;
static PyObject *s_getrandbits;
static PyObject *s_svc_read;
static PyObject *s_svc_write;
static PyObject *s_lock_acquire;
static PyObject *ll_zero;
static PyObject *ll_one;
static PyObject *issue_empty_tuple;

/* ------------------------------------------------------------------ helpers */

/* obj.name += delta with generic numeric semantics (mirrors `+=` on a
 * plain attribute, including non-int instruction counts). */
static int
bump_attr(PyObject *obj, PyObject *name, PyObject *delta)
{
    PyObject *current = PyObject_GetAttr(obj, name);
    if (current == NULL)
        return -1;
    PyObject *next = PyNumber_Add(current, delta);
    Py_DECREF(current);
    if (next == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, next);
    Py_DECREF(next);
    return rc;
}

/* Pop the tail of an arena free list, else construct a blank instance of
 * `cls` (object.__new__ semantics; every field is assigned afterwards,
 * exactly like the dataclass __init__ the pure paths run). */
static PyObject *
alloc_from(PyObject *pool, PyObject *cls)
{
    if (pool != NULL) {
        Py_ssize_t size = PyList_GET_SIZE(pool);
        if (size > 0) {
            PyObject *obj = PyList_GET_ITEM(pool, size - 1);
            Py_INCREF(obj);
            if (PyList_SetSlice(pool, size - 1, size, NULL) < 0) {
                Py_DECREF(obj);
                return NULL;
            }
            return obj;
        }
    }
    return ((PyTypeObject *)cls)->tp_new((PyTypeObject *)cls,
                                         issue_empty_tuple, NULL);
}

/* Assign every Transaction field, mirroring Transaction.__init__
 * field-for-field (recycled instances get every default re-applied, which
 * is exactly what arena.transaction's __init__(**fields) call does). */
static int
txn_set_fields(PyObject *txn, PyObject *address, PyObject *kind,
               PyObject *requester, PyObject *issue_time,
               PyObject *store_token, PyObject *expects_data,
               PyObject *completion_callback, PyObject *txn_id)
{
    if (PyObject_SetAttr(txn, s_address, address) < 0 ||
        PyObject_SetAttr(txn, s_kind, kind) < 0 ||
        PyObject_SetAttr(txn, s_requester, requester) < 0 ||
        PyObject_SetAttr(txn, s_issue_time, issue_time) < 0 ||
        PyObject_SetAttr(txn, s_store_token, store_token) < 0 ||
        PyObject_SetAttr(txn, s_expects_data, expects_data) < 0 ||
        PyObject_SetAttr(txn, s_was_broadcast, Py_True) < 0 ||
        PyObject_SetAttr(txn, s_completion_callback, completion_callback) < 0 ||
        PyObject_SetAttr(txn, s_transaction_id, txn_id) < 0 ||
        PyObject_SetAttr(txn, s_marker_seen, Py_False) < 0 ||
        PyObject_SetAttr(txn, s_effective_order_seq, Py_None) < 0 ||
        PyObject_SetAttr(txn, s_data_received, Py_False) < 0 ||
        PyObject_SetAttr(txn, s_received_token, ll_zero) < 0 ||
        PyObject_SetAttr(txn, s_completed, Py_False) < 0 ||
        PyObject_SetAttr(txn, s_completion_time, Py_None) < 0 ||
        PyObject_SetAttr(txn, s_deferred, issue_empty_tuple) < 0 ||
        PyObject_SetAttr(txn, s_invalidate_seqs, issue_empty_tuple) < 0 ||
        PyObject_SetAttr(txn, s_ownership_passed, Py_False) < 0 ||
        PyObject_SetAttr(txn, s_retries_observed, ll_zero) < 0 ||
        PyObject_SetAttr(txn, s_nacked, Py_False) < 0 ||
        PyObject_SetAttr(txn, s_reissued_as_broadcast, Py_False) < 0 ||
        PyObject_SetAttr(txn, s_context, Py_None) < 0)
        return -1;
    return 0;
}

/* Allocate (pool or fresh) and fully initialise a Message, drawing a fresh
 * msg_id exactly like Message.__init__'s `next(_message_ids)`. */
static PyObject *
build_message(PyObject *pool, PyObject *cls, PyObject *msg_id_next,
              PyObject *msg_type, PyObject *src, PyObject *address,
              PyObject *size_bytes, PyObject *requester, PyObject *dest,
              PyObject *dest_unit, PyObject *recipients, PyObject *txn_id,
              PyObject *is_broadcast, PyObject *data_token,
              PyObject *issue_time)
{
    PyObject *msg = alloc_from(pool, cls);
    if (msg == NULL)
        return NULL;
    PyObject *mid = PyObject_CallNoArgs(msg_id_next);
    if (mid == NULL) {
        Py_DECREF(msg);
        return NULL;
    }
    int rc = 0;
    if (PyObject_SetAttr(msg, s_msg_type, msg_type) < 0 ||
        PyObject_SetAttr(msg, s_src, src) < 0 ||
        PyObject_SetAttr(msg, s_address, address) < 0 ||
        PyObject_SetAttr(msg, s_size_bytes, size_bytes) < 0 ||
        PyObject_SetAttr(msg, s_requester, requester) < 0 ||
        PyObject_SetAttr(msg, s_dest, dest) < 0 ||
        PyObject_SetAttr(msg, s_dest_unit, dest_unit) < 0 ||
        PyObject_SetAttr(msg, s_recipients, recipients) < 0 ||
        PyObject_SetAttr(msg, s_transaction_id, txn_id) < 0 ||
        PyObject_SetAttr(msg, s_is_broadcast, is_broadcast) < 0 ||
        PyObject_SetAttr(msg, s_is_retry, Py_False) < 0 ||
        PyObject_SetAttr(msg, s_retry_count, ll_zero) < 0 ||
        PyObject_SetAttr(msg, s_original_type, Py_None) < 0 ||
        PyObject_SetAttr(msg, s_order_seq, Py_None) < 0 ||
        PyObject_SetAttr(msg, s_data_token, data_token) < 0 ||
        PyObject_SetAttr(msg, s_issue_time, issue_time) < 0 ||
        PyObject_SetAttr(msg, s_msg_id, mid) < 0)
        rc = -1;
    Py_DECREF(mid);
    if (rc < 0) {
        Py_DECREF(msg);
        return NULL;
    }
    return msg;
}

/* ------------------------------------------------------------------ MemServe
 *
 * One controller's DATA reply: MemoryControllerBase._send_data (a home
 * memory, after _dram_latency under _memory_data_label) or
 * CacheControllerBase._send_data (an owner cache, after
 * _cache_response_latency under _data_response_label).  issue_send_data
 * builds the (pooled) DATA message, counts data_responses and pushes the
 * controller's `_unordered_send` callback entry after the latency --
 * identical to _send_data + schedule_after_fast1.  Entered from
 * _chandlers.c's home and owner serves and from DirHome below. */

typedef struct {
    PyObject_HEAD
    PyObject *controller;     /* the sending controller (latency, count()) */
    PyObject *scheduler;      /* compiled SchedulerBase */
    PyObject *src;            /* boxed node id (message src) */
    PyObject *unordered_send; /* controller._unordered_send */
    PyObject *data_label;     /* the controller's DATA label */
    PyObject *latency_name;   /* "_dram_latency" or "_cache_response_latency" */
    PyObject *data_bytes;     /* config.data_message_bytes */
    PyObject *data_counter;   /* controller._ctr_data_responses, or NULL:
                                 count("data_responses") */
    PyObject *msg_cls;        /* Message class */
    PyObject *msg_pool;       /* arena._messages list, or NULL */
    PyObject *msg_id_next;    /* bound _message_ids.__next__ */
} MemServeObject;

static int
MemServe_init(MemServeObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *scheduler, *src, *unordered_send, *data_label;
    PyObject *msg_cls, *msg_id_next, *data_bytes, *msg_pool = Py_None;
    PyObject *data_counter = Py_None;
    int from_memory = 1;
    static char *kwlist[] = {"controller",     "scheduler",  "src",
                             "unordered_send", "data_label", "msg_cls",
                             "msg_id_next",    "data_bytes", "msg_pool",
                             "from_memory",    "data_counter", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOOOOO|OpO", kwlist,
                                     &controller, &scheduler, &src,
                                     &unordered_send, &data_label, &msg_cls,
                                     &msg_id_next, &data_bytes, &msg_pool,
                                     &from_memory, &data_counter))
        return -1;
    if (!protocol_injected())
        return -1;
    if (!core_scheduler_check(scheduler)) {
        PyErr_SetString(PyExc_TypeError,
                        "MemServe requires a compiled SchedulerBase");
        return -1;
    }
    if (msg_pool != Py_None && !PyList_Check(msg_pool)) {
        PyErr_SetString(PyExc_TypeError, "msg_pool must be a list or None");
        return -1;
    }
    Py_XSETREF(self->controller, Py_NewRef(controller));
    Py_XSETREF(self->scheduler, Py_NewRef(scheduler));
    Py_XSETREF(self->src, Py_NewRef(src));
    Py_XSETREF(self->unordered_send, Py_NewRef(unordered_send));
    Py_XSETREF(self->data_label, Py_NewRef(data_label));
    Py_XSETREF(self->latency_name,
               Py_NewRef(from_memory ? s__dram_latency
                                     : s__cache_response_latency));
    Py_XSETREF(self->data_bytes, Py_NewRef(data_bytes));
    Py_XSETREF(self->data_counter,
               data_counter == Py_None ? NULL : Py_NewRef(data_counter));
    Py_XSETREF(self->msg_cls, Py_NewRef(msg_cls));
    Py_XSETREF(self->msg_pool,
               msg_pool == Py_None ? NULL : Py_NewRef(msg_pool));
    Py_XSETREF(self->msg_id_next, Py_NewRef(msg_id_next));
    return 0;
}

static int
MemServe_traverse(MemServeObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->controller);
    Py_VISIT(self->scheduler);
    Py_VISIT(self->src);
    Py_VISIT(self->unordered_send);
    Py_VISIT(self->data_label);
    Py_VISIT(self->latency_name);
    Py_VISIT(self->data_bytes);
    Py_VISIT(self->data_counter);
    Py_VISIT(self->msg_cls);
    Py_VISIT(self->msg_pool);
    Py_VISIT(self->msg_id_next);
    return 0;
}

static int
MemServe_clear(MemServeObject *self)
{
    Py_CLEAR(self->controller);
    Py_CLEAR(self->scheduler);
    Py_CLEAR(self->src);
    Py_CLEAR(self->unordered_send);
    Py_CLEAR(self->data_label);
    Py_CLEAR(self->latency_name);
    Py_CLEAR(self->data_bytes);
    Py_CLEAR(self->data_counter);
    Py_CLEAR(self->msg_cls);
    Py_CLEAR(self->msg_pool);
    Py_CLEAR(self->msg_id_next);
    return 0;
}

static void
MemServe_dealloc(MemServeObject *self)
{
    PyObject_GC_UnTrack(self);
    MemServe_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject MemServe_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.MemServe",
    .tp_basicsize = sizeof(MemServeObject),
    .tp_dealloc = (destructor)MemServe_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled DATA reply of one memory or cache controller.",
    .tp_traverse = (traverseproc)MemServe_traverse,
    .tp_clear = (inquiry)MemServe_clear,
    .tp_init = (initproc)MemServe_init,
    .tp_new = PyType_GenericNew,
};

int
issue_is_memserve(PyObject *op)
{
    return PyObject_TypeCheck(op, &MemServe_Type);
}

/* The controller's reply latency: 1 with *latency set when it is a
 * non-negative int (what schedule_after_fast1 accepts), else 0 with no
 * error set (the Python path raises or handles it). */
static int
reply_latency(PyObject *controller, PyObject *name, long long *latency)
{
    PyObject *value = PyObject_GetAttr(controller, name);
    int overflow = 1;
    if (value != NULL && PyLong_CheckExact(value))
        *latency = PyLong_AsLongLongAndOverflow(value, &overflow);
    Py_XDECREF(value);
    if (PyErr_Occurred())
        PyErr_Clear();
    return !overflow && *latency >= 0;
}

int
issue_send_data(PyObject *serve, PyObject *address, PyObject *dest,
                PyObject *data_token, PyObject *transaction_id)
{
    MemServeObject *self = (MemServeObject *)serve;
    long long latency;
    if (!reply_latency(self->controller, self->latency_name, &latency))
        return 1;
    long long now = core_scheduler_now(self->scheduler);
    PyObject *now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL)
        return -1;
    PyObject *msg = build_message(
        self->msg_pool, self->msg_cls, self->msg_id_next, MT_DATA, self->src,
        address, self->data_bytes, /*requester=*/dest, dest, DU_CACHE_U,
        EMPTY_RECIPIENTS, transaction_id, Py_False, data_token, now_obj);
    Py_DECREF(now_obj);
    if (msg == NULL)
        return -1;
    int rc = self->data_counter != NULL
                 ? counter_bump(self->data_counter, s__count)
                 : count_stat(self->controller, n_data_responses);
    if (rc == 0)
        rc = core_push_fast(self->scheduler, now + latency,
                            self->unordered_send, self->data_label, msg);
    Py_DECREF(msg);
    return rc;
}

int
issue_mem_serve(PyObject *serve, PyObject *message, PyObject *entry)
{
    MemServeObject *self = (MemServeObject *)serve;
    PyObject *address = message_get(message, MSG_ADDRESS);
    PyObject *requester = address == NULL
                              ? NULL
                              : message_get(message, MSG_REQUESTER);
    PyObject *txn_id = requester == NULL
                           ? NULL
                           : message_get(message, MSG_TRANSACTION_ID);
    PyObject *data_token = txn_id == NULL
                               ? NULL
                               : PyObject_GetAttr(entry, s_data_token);
    int rc = -1;
    if (data_token != NULL) {
        rc = issue_send_data(serve, address, requester, data_token, txn_id);
        if (rc == 0)
            rc = count_stat(self->controller, n_memory_responses);
    }
    Py_XDECREF(address);
    Py_XDECREF(requester);
    Py_XDECREF(txn_id);
    Py_XDECREF(data_token);
    return rc;
}

/* ------------------------------------------------------------------- DirHome
 *
 * The Directory home's unordered GETS/GETM entry
 * (DirectoryMemoryController._handle_gets / _handle_getm): the home test
 * with the stock block-interleaved mapping, the directory probe, the
 * memory DATA reply (issue_send_data), the MARKER or FWD_GETS/FWD_GETM
 * build -- unpooled like the pure Message(...) calls, recipients formed as
 * the pure code forms them -- pushed after _dram_latency to the ordered
 * inject under the controller's prebuilt labels, and the sharers/owner
 * update.  A non-home address calls _require_home (which raises); odd
 * shapes (non-int fields, a non-set sharer container, a negative latency)
 * call the bound Python handler before anything is written.  The unordered
 * network's arena release is folded in, as for DataDeliver. */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    int getm;                   /* 1: the GETM entry; 0: GETS */
    long long node_id;
    long long block_bytes;      /* config.cache_block_bytes */
    long long num_procs;        /* config.num_processors */
    PyObject *controller;       /* DirectoryMemoryController */
    PyObject *serve;            /* its MemServe (DATA replies) */
    PyObject *fallback;         /* bound _handle_gets / _handle_getm */
    PyObject *require_home;     /* bound _require_home */
    PyObject *entries;          /* directory._entries (dict) */
    PyObject *lookup;           /* bound DirectoryStore.lookup */
    PyObject *singletons;       /* controller._singletons (dict) */
    PyObject *inject;           /* callback for markers and forwards */
    PyObject *marker_label;
    PyObject *forward_label;
    PyObject *request_bytes;    /* controller._request_bytes */
    PyObject *memory_responses; /* controller._ctr_memory_responses */
    PyObject *message_release;  /* bound arena.release_message, or NULL */
} DirHomeObject;

static PyObject *DirHome_vectorcall(DirHomeObject *self, PyObject *const *args,
                                    size_t nargsf, PyObject *kwnames);

static int
DirHome_init(DirHomeObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *serve, *fallback, *require_home, *entries, *lookup;
    PyObject *singletons, *inject, *marker_label, *forward_label;
    PyObject *request_bytes, *memory_responses, *message_release = Py_None;
    long long node_id, block_bytes, num_procs;
    int getm;
    static char *kwlist[] = {
        "getm",          "node_id",       "block_bytes",      "num_procs",
        "controller",    "serve",         "fallback",         "require_home",
        "entries",       "lookup",        "singletons",       "inject",
        "marker_label",  "forward_label", "request_bytes",
        "memory_responses", "message_release", NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "pLLLOOOOOOOOOOOO|O", kwlist, &getm, &node_id,
            &block_bytes, &num_procs, &controller, &serve, &fallback,
            &require_home, &entries, &lookup, &singletons, &inject,
            &marker_label, &forward_label, &request_bytes, &memory_responses,
            &message_release))
        return -1;
    if (!protocol_injected())
        return -1;
    if (!issue_is_memserve(serve) || !PyDict_Check(entries) ||
        !PyDict_Check(singletons)) {
        PyErr_SetString(PyExc_TypeError,
                        "DirHome requires a MemServe and entries and "
                        "singletons dicts");
        return -1;
    }
    if (block_bytes <= 0 || num_procs <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "block_bytes and num_procs must be positive");
        return -1;
    }
    self->getm = getm;
    self->node_id = node_id;
    self->block_bytes = block_bytes;
    self->num_procs = num_procs;
    Py_XSETREF(self->controller, Py_NewRef(controller));
    Py_XSETREF(self->serve, Py_NewRef(serve));
    Py_XSETREF(self->fallback, Py_NewRef(fallback));
    Py_XSETREF(self->require_home, Py_NewRef(require_home));
    Py_XSETREF(self->entries, Py_NewRef(entries));
    Py_XSETREF(self->lookup, Py_NewRef(lookup));
    Py_XSETREF(self->singletons, Py_NewRef(singletons));
    Py_XSETREF(self->inject, Py_NewRef(inject));
    Py_XSETREF(self->marker_label, Py_NewRef(marker_label));
    Py_XSETREF(self->forward_label, Py_NewRef(forward_label));
    Py_XSETREF(self->request_bytes, Py_NewRef(request_bytes));
    Py_XSETREF(self->memory_responses, Py_NewRef(memory_responses));
    Py_XSETREF(self->message_release, message_release == Py_None
                                          ? NULL
                                          : Py_NewRef(message_release));
    self->vectorcall = (vectorcallfunc)DirHome_vectorcall;
    return 0;
}

static int
DirHome_traverse(DirHomeObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->controller);
    Py_VISIT(self->serve);
    Py_VISIT(self->fallback);
    Py_VISIT(self->require_home);
    Py_VISIT(self->entries);
    Py_VISIT(self->lookup);
    Py_VISIT(self->singletons);
    Py_VISIT(self->inject);
    Py_VISIT(self->marker_label);
    Py_VISIT(self->forward_label);
    Py_VISIT(self->request_bytes);
    Py_VISIT(self->memory_responses);
    Py_VISIT(self->message_release);
    return 0;
}

static int
DirHome_clear(DirHomeObject *self)
{
    Py_CLEAR(self->controller);
    Py_CLEAR(self->serve);
    Py_CLEAR(self->fallback);
    Py_CLEAR(self->require_home);
    Py_CLEAR(self->entries);
    Py_CLEAR(self->lookup);
    Py_CLEAR(self->singletons);
    Py_CLEAR(self->inject);
    Py_CLEAR(self->marker_label);
    Py_CLEAR(self->forward_label);
    Py_CLEAR(self->request_bytes);
    Py_CLEAR(self->memory_responses);
    Py_CLEAR(self->message_release);
    return 0;
}

static void
DirHome_dealloc(DirHomeObject *self)
{
    PyObject_GC_UnTrack(self);
    DirHome_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* One request's per-call values, read and checked before any write. */
typedef struct {
    PyObject *address;
    PyObject *requester;
    PyObject *transaction_id;
    PyObject *entry;
    PyObject *owner;
    PyObject *sharers;
    long long requester_id;
    long long owner_id;
    long long latency;
    long long now;
} HomeRequest;

/* _singleton(node): the memoised frozenset({node}).  New reference. */
static PyObject *
home_singleton(DirHomeObject *self, PyObject *node)
{
    PyObject *recipients = PyDict_GetItemWithError(self->singletons, node);
    if (recipients != NULL)
        return Py_NewRef(recipients);
    if (PyErr_Occurred())
        return NULL;
    PyObject *members = PyTuple_Pack(1, node);
    recipients = members == NULL ? NULL : PyFrozenSet_New(members);
    Py_XDECREF(members);
    if (recipients != NULL &&
        PyDict_SetItem(self->singletons, node, recipients) < 0)
        Py_CLEAR(recipients);
    return recipients;
}

/* Build an ordered MARKER/FWD message from the request and push it to the
 * ordered inject after the DRAM latency (_send_marker / _forward). */
static int
home_send_ordered(DirHomeObject *self, HomeRequest *request,
                  PyObject *message, PyObject *msg_type,
                  PyObject *recipients)
{
    MemServeObject *serve = (MemServeObject *)self->serve;
    int forward = msg_type != MT_MARKER;
    PyObject *token =
        forward ? message_get(message, MSG_DATA_TOKEN) : Py_NewRef(ll_zero);
    if (token == NULL)
        return -1;
    PyObject *now_obj = PyLong_FromLongLong(request->now);
    PyObject *msg = NULL;
    if (now_obj != NULL)
        msg = build_message(NULL, serve->msg_cls, serve->msg_id_next,
                            msg_type, serve->src, request->address,
                            self->request_bytes, request->requester, Py_None,
                            DU_CACHE_U, recipients, request->transaction_id,
                            Py_False, token, now_obj);
    Py_XDECREF(now_obj);
    Py_DECREF(token);
    if (msg == NULL)
        return -1;
    int rc = forward ? count_stat(self->controller, n_forwards) : 0;
    if (rc == 0)
        rc = core_push_fast(serve->scheduler, request->now + request->latency,
                            self->inject,
                            forward ? self->forward_label : self->marker_label,
                            msg);
    Py_DECREF(msg);
    return rc;
}

static int
home_marker(DirHomeObject *self, HomeRequest *request, PyObject *message)
{
    PyObject *recipients = home_singleton(self, request->requester);
    if (recipients == NULL)
        return -1;
    int rc = home_send_ordered(self, request, message, MT_MARKER, recipients);
    Py_DECREF(recipients);
    return rc;
}

/* frozenset(sharers | {extra..., requester}) for a FWD_GETM (`owner` is
 * NULL when only the requester joins), or frozenset((owner, requester))
 * for a FWD_GETS (`sharers` NULL): the pure code's expressions. */
static PyObject *
home_recipients(PyObject *sharers, PyObject *owner, PyObject *requester)
{
    if (sharers == NULL) {
        PyObject *pair = PyTuple_Pack(2, owner, requester);
        PyObject *recipients = pair == NULL ? NULL : PyFrozenSet_New(pair);
        Py_XDECREF(pair);
        return recipients;
    }
    PyObject *joined = PySet_New(NULL);
    if (joined == NULL || (owner != NULL && PySet_Add(joined, owner) < 0) ||
        PySet_Add(joined, requester) < 0) {
        Py_XDECREF(joined);
        return NULL;
    }
    PyObject *union_set = PyNumber_Or(sharers, joined);
    Py_DECREF(joined);
    if (union_set == NULL)
        return NULL;
    PyObject *recipients = PyFrozenSet_New(union_set);
    Py_DECREF(union_set);
    return recipients;
}

static int
home_forward(DirHomeObject *self, HomeRequest *request, PyObject *message,
             PyObject *recipients)
{
    if (recipients == NULL)
        return -1;
    int rc = home_send_ordered(self, request, message,
                               self->getm ? MT_FWD_GETM : MT_FWD_GETS,
                               recipients);
    Py_DECREF(recipients);
    return rc;
}

/* The memory DATA reply: 1 delegate (nothing written), 0 sent, -1 error. */
static int
home_data(DirHomeObject *self, HomeRequest *request)
{
    PyObject *token = PyObject_GetAttr(request->entry, s_data_token);
    if (token == NULL)
        return -1;
    int rc = issue_send_data(self->serve, request->address,
                             request->requester, token,
                             request->transaction_id);
    Py_DECREF(token);
    return rc;
}

static int
home_gets(DirHomeObject *self, HomeRequest *request, PyObject *message)
{
    int rc;
    if (request->owner_id == MEMORY_OWNER_ID ||
        request->owner_id == request->requester_id) {
        rc = home_data(self, request);
        if (rc != 0)
            return rc;
        if (home_marker(self, request, message) < 0 ||
            counter_bump(self->memory_responses, s__count) < 0)
            return -1;
    }
    else if (home_forward(self, request, message,
                          home_recipients(NULL, request->owner,
                                          request->requester)) < 0)
        return -1;
    if (request->requester_id != request->owner_id &&
        PySet_Add(request->sharers, request->requester) < 0)
        return -1;
    return 0;
}

static int
home_getm(DirHomeObject *self, HomeRequest *request, PyObject *message)
{
    PyObject *sharers = request->sharers;
    int rc;
    if (request->owner_id == MEMORY_OWNER_ID) {
        rc = home_data(self, request);
        if (rc != 0)
            return rc;
        if (counter_bump(self->memory_responses, s__count) < 0)
            return -1;
        Py_ssize_t count = PySet_GET_SIZE(sharers);
        int contains = count ? PySet_Contains(sharers, request->requester) : 0;
        if (contains < 0)
            return -1;
        rc = count && (!contains || count > 1)
                 ? home_forward(self, request, message,
                                home_recipients(sharers, NULL,
                                                request->requester))
                 : home_marker(self, request, message);
    }
    else
        rc = home_forward(
            self, request, message,
            home_recipients(sharers,
                            request->owner_id == request->requester_id
                                ? NULL
                                : request->owner,
                            request->requester));
    if (rc < 0)
        return -1;
    /* entry.owner = requester; sharers.clear() */
    if (PyObject_SetAttr(request->entry, s_owner, request->requester) < 0 ||
        PySet_Clear(sharers) < 0)
        return -1;
    return 0;
}

/* An exact int field as long long; 0 when odd (no error set). */
static int
exact_ll(PyObject *value, long long *out)
{
    int overflow = 1;
    if (value != NULL && PyLong_CheckExact(value))
        *out = PyLong_AsLongLongAndOverflow(value, &overflow);
    return !overflow;
}

/* The whole request: 0 handled (in C or by the Python handler), -1 error. */
static int
dir_home(DirHomeObject *self, PyObject *message)
{
    HomeRequest request = {0};
    int rc = -1;
    long long addr;
    request.address = message_get(message, MSG_ADDRESS);
    if (request.address == NULL)
        return -1;
    if (!exact_ll(request.address, &addr) || addr < 0) {
        rc = 1;
        goto done;
    }
    if ((addr / self->block_bytes) % self->num_procs != self->node_id) {
        /* _require_home raises the ProtocolError */
        rc = call_discard1(self->require_home, message) < 0 ? -1 : 1;
        goto done;
    }
    request.entry = PyDict_GetItemWithError(self->entries, request.address);
    if (request.entry != NULL)
        Py_INCREF(request.entry);
    else if (PyErr_Occurred() ||
             (request.entry = PyObject_CallOneArg(self->lookup,
                                                  request.address)) == NULL)
        goto done;
    request.requester = message_get(message, MSG_REQUESTER);
    request.transaction_id =
        request.requester == NULL
            ? NULL
            : message_get(message, MSG_TRANSACTION_ID);
    request.owner = request.transaction_id == NULL
                        ? NULL
                        : PyObject_GetAttr(request.entry, s_owner);
    request.sharers = request.owner == NULL
                          ? NULL
                          : PyObject_GetAttr(request.entry, s_sharers);
    if (request.sharers == NULL)
        goto done;
    if (!exact_ll(request.requester, &request.requester_id) ||
        !exact_ll(request.owner, &request.owner_id) ||
        !PySet_CheckExact(request.sharers) ||
        !reply_latency(self->controller, s__dram_latency, &request.latency)) {
        rc = 1;
        goto done;
    }
    request.now =
        core_scheduler_now(((MemServeObject *)self->serve)->scheduler);
    rc = self->getm ? home_getm(self, &request, message)
                    : home_gets(self, &request, message);
done:
    if (rc == 1)
        rc = call_discard1(self->fallback, message);
    Py_XDECREF(request.address);
    Py_XDECREF(request.entry);
    Py_XDECREF(request.requester);
    Py_XDECREF(request.transaction_id);
    Py_XDECREF(request.owner);
    Py_XDECREF(request.sharers);
    return rc;
}

static PyObject *
DirHome_vectorcall(DirHomeObject *self, PyObject *const *args, size_t nargsf,
                   PyObject *kwnames)
{
    if (!vectorcall_args("DirHome", nargsf, kwnames, 1))
        return NULL;
    if (dir_home(self, args[0]) < 0)
        return NULL;
    if (self->message_release != NULL &&
        call_discard1(self->message_release, args[0]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
DirHome_get_releases(DirHomeObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->message_release != NULL);
}

static PyGetSetDef DirHome_getset[] = {
    {"releases_message", (getter)DirHome_get_releases, NULL,
     "True when this entry returns delivered messages to the arena pool.",
     NULL},
    {NULL}};

static PyTypeObject DirHome_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.DirHome",
    .tp_basicsize = sizeof(DirHomeObject),
    .tp_dealloc = (destructor)DirHome_dealloc,
    .tp_vectorcall_offset = offsetof(DirHomeObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled Directory home entry for one of GETS/GETM.",
    .tp_traverse = (traverseproc)DirHome_traverse,
    .tp_clear = (inquiry)DirHome_clear,
    .tp_getset = DirHome_getset,
    .tp_init = (initproc)DirHome_init,
    .tp_new = PyType_GenericNew,
};

/* ---------------------------------------------------------------- ZipfTable
 *
 * One C copy of a ZipfSampler's cumulative weights (its `_cumulative` list
 * of floats), built once per sampler and shared by every node's step, so
 * the traffic source's key draw is bisect.bisect_left over doubles: the
 * comparisons the pure bisect makes over the list's floats, in the same
 * order, with no Python object per draw. */

typedef struct {
    PyObject_HEAD
    Py_ssize_t size;
    double *cumulative;
} ZipfTableObject;

static int
ZipfTable_init(ZipfTableObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *cumulative;
    static char *kwlist[] = {"cumulative", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", kwlist, &PyList_Type,
                                     &cumulative))
        return -1;
    Py_ssize_t size = PyList_GET_SIZE(cumulative);
    double *values = PyMem_New(double, size > 0 ? size : 1);
    if (values == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *item = PyList_GET_ITEM(cumulative, i);
        if (!PyFloat_CheckExact(item)) {
            PyMem_Free(values);
            PyErr_SetString(PyExc_TypeError,
                            "ZipfTable needs a list of floats");
            return -1;
        }
        values[i] = PyFloat_AS_DOUBLE(item);
    }
    PyMem_Free(self->cumulative);
    self->cumulative = values;
    self->size = size;
    return 0;
}

static void
ZipfTable_dealloc(ZipfTableObject *self)
{
    PyMem_Free(self->cumulative);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ZipfSampler.rank(u) for x = u * total: bisect_left, then the clamp to
 * the last key. */
static long long
zipf_rank(const ZipfTableObject *table, double x, long long keys)
{
    Py_ssize_t lo = 0, hi = table->size;
    while (lo < hi) {
        Py_ssize_t mid = (Py_ssize_t)(((size_t)lo + (size_t)hi) / 2);
        if (table->cumulative[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < keys - 1 ? lo : keys - 1;
}

static PyMemberDef ZipfTable_members[] = {
    {"size", T_PYSSIZET, offsetof(ZipfTableObject, size), READONLY,
     "number of cumulative weights"},
    {NULL}};

static PyTypeObject ZipfTable_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.ZipfTable",
    .tp_basicsize = sizeof(ZipfTableObject),
    .tp_dealloc = (destructor)ZipfTable_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "C copy of a ZipfSampler's cumulative weights.",
    .tp_members = ZipfTable_members,
    .tp_init = (initproc)ZipfTable_init,
    .tp_new = PyType_GenericNew,
};

/* -------------------------------------------------------------- SequencerStep
 *
 * The fused Sequencer._perform + _fetch_next delivery object: scheduled as
 * the perform/retry callback in place of the bound Python method, it runs
 * hit accounting, the miss retry, LRU eviction (silent or writeback),
 * issue_request/issue_writeback with arena-backed allocation, the protocol
 * _send_* body, workload accounting and the think-time reschedule — all
 * without entering the interpreter on the common path.  Its `complete`
 * method mirrors _complete_miss and is installed as the transaction
 * completion callback.
 *
 * send_mode: 1 = the snooping body: broadcast on the controller's
 * _ordered_send; 2 = the directory body: unicast to the home on its
 * _unordered_send; 3 = BASH's body: the LFSR draw against the policy
 * counter, then a broadcast or a {home, requester} dualcast on
 * _ordered_send (writebacks always dualcast).
 * Mode 1 is mode 3 with every request's decision fixed to broadcast.
 *
 * source_mode: 0 = call the stored bound workload next_operation /
 * on_complete; 1 = the stationary TrafficWorkload (a Zipf key from the
 * node's own RNG, the read/write draw, the think jitter); 2 = the
 * LockingMicrobenchmark (a lock from the shared RNG, stepped past the
 * node's last lock, the think jitter).  Modes 1 and 2 draw through the
 * RNG's own C methods, build the MemoryOperation by slot and count
 * _issued/_completed in the workload's dicts; an entry those dicts hold in
 * an unexpected shape (missing, not an exact int) sends that one call to
 * the bound Python method before anything is drawn.
 */

/* Widest policy counter the C integer path holds: the LFSR draw is packed
 * into 64 bits, and the sampler's policy/maximum division is exact only
 * below 2**53.  A wider counter declines the whole step (checked on the
 * Python side as well). */
#define BASH_MAX_POLICY_BITS 53
#define BASH_MAX_TAPS 8

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    long long node_id;
    long long block_bytes;     /* config.cache_block_bytes */
    long long capacity;        /* config.cache_capacity_blocks */
    int send_mode;
    PyObject *node_id_obj;
    PyObject *sequencer;       /* Sequencer (attr bumps + count() calls) */
    PyObject *scheduler;       /* compiled SchedulerBase */
    PyObject *cache;           /* cache controller (count() calls) */
    PyObject *blocks;          /* cache.blocks._blocks (dict) */
    PyObject *transactions;    /* cache.transactions (dict) */
    PyObject *writebacks;      /* cache.writebacks (dict) */
    PyObject *perform;         /* bound Sequencer._perform — bail target */
    PyObject *finish_stream;   /* bound Sequencer._finish_stream */
    PyObject *next_operation;  /* bound workload.next_operation */
    PyObject *on_complete;     /* bound workload.on_complete, or NULL (elided
                                  when the stock no-op) */
    PyObject *schedule_after;  /* bound scheduler.schedule_after_fast1 */
    PyObject *perform_label;
    PyObject *retry_label;
    PyObject *ctr_hits;        /* hoisted Counter handles (._count bumps) */
    PyObject *ctr_misses;
    PyObject *sys_operations;
    PyObject *sys_instructions;
    PyObject *ctr_requests;
    PyObject *ctr_requests_gets;
    PyObject *ctr_requests_getm;
    PyObject *txn_cls;         /* Transaction */
    PyObject *txn_pool;        /* arena._transactions list, or NULL */
    PyObject *txn_id_next;     /* bound _transaction_ids.__next__ */
    PyObject *msg_cls;         /* Message */
    PyObject *msg_pool;        /* arena._messages (mode 2), or NULL */
    PyObject *msg_id_next;     /* bound _message_ids.__next__ */
    PyObject *request_bytes;   /* boxed config.request_message_bytes */
    PyObject *data_bytes;      /* boxed config.data_message_bytes (mode 2) */
    PyObject *all_nodes;       /* interconnect.all_nodes (modes 1 and 3) */
    PyObject *send;            /* cache._ordered_send (modes 1 and 3) or
                                  cache._unordered_send (mode 2) */
    PyObject *ctr_unicast;     /* _ctr_unicast_requests (mode 2) */
    PyObject *complete_cb;     /* bound self.complete */
    /* Mode 3 (BASH): the node's mechanism and its LFSR and policy counter
     * (states read and written through attributes), the LFSR taps fixed at
     * selection, and the block-interleaved home arithmetic. */
    PyObject *adaptive;        /* BandwidthAdaptiveMechanism */
    PyObject *lfsr;            /* LinearFeedbackShiftRegister */
    PyObject *policy;          /* UnsignedSaturatingCounter */
    PyObject *sys_broadcast_decisions; /* system.*_decisions Counters */
    PyObject *sys_unicast_decisions;
    long long num_procs;       /* the home mapping (modes 2 and 3) */
    unsigned long long lfsr_mask;
    int lfsr_top;
    int lfsr_taps;
    int lfsr_shifts[BASH_MAX_TAPS];
    int policy_bits;
    /* Source modes 1 and 2: the workload's RNG methods and dicts, the
     * MemoryOperation slots and the parameters fixed at selection. */
    int source_mode;
    PyObject *rng_random;      /* rng.random (the C method, bound) */
    PyObject *rng_getrandbits; /* rng.getrandbits */
    PyObject *issued;          /* workload._issued */
    PyObject *completed;       /* workload._completed */
    PyObject *last_lock;       /* workload._last_lock (mode 2) */
    PyObject *zipf;            /* ZipfTable of the sampler (mode 1) */
    SlotLayout op_layout;      /* MemoryOperation's field slots */
    long long quota;           /* operations / acquires per processor */
    long long think;           /* base think cycles */
    long long jitter;          /* think jitter (randrange(jitter + 1)) */
    long long keys;            /* sampler.num_keys / num_locks */
    long long key_base;        /* the node's tenant key base (mode 1) */
    long long op_block_bytes;  /* workload.block_bytes */
    double zipf_total;         /* sampler._total (mode 1) */
    double write_fraction;     /* (mode 1) */
} SequencerStepObject;

/* MemoryOperation's fields, in the order op_layout resolves them. */
enum { OP_ADDRESS, OP_IS_WRITE, OP_THINK_CYCLES, OP_INSTRUCTIONS, OP_LABEL,
       OP_FIELDS };
static PyObject *op_names[OP_FIELDS];

/* Source modes 1 and 2 selection: resolve the operation class's slots,
 * bind the RNG's methods and check every parameter the C arithmetic
 * uses.  0 / -1. */
static int
sstep_bind_source(SequencerStepObject *self, PyObject *op_cls, PyObject *rng,
                  PyObject *issued, PyObject *completed, PyObject *last_lock,
                  PyObject *zipf)
{
    int mode = self->source_mode;
    long long top, span;
    if (!PyType_Check(op_cls) || rng == Py_None || !PyDict_Check(issued) ||
        !PyDict_Check(completed) || (mode == 2 && !PyDict_Check(last_lock)) ||
        (mode == 1 && !Py_IS_TYPE(zipf, &ZipfTable_Type))) {
        PyErr_SetString(PyExc_TypeError,
                        "source modes 1 and 2 need op_cls, rng, the issued "
                        "and completed dicts, and last_lock (mode 2) or "
                        "zipf (mode 1)");
        return -1;
    }
    if (self->quota < 0 || self->think < 0 || self->jitter < 0 ||
        self->keys < 1 || self->key_base < 0 || self->op_block_bytes < 0 ||
        __builtin_add_overflow(self->think, self->jitter, &top) ||
        __builtin_add_overflow(self->key_base, self->keys, &span) ||
        __builtin_mul_overflow(span, self->op_block_bytes, &top)) {
        PyErr_SetString(PyExc_ValueError,
                        "source parameters must be non-negative, keys "
                        "positive, and every address and think time must "
                        "fit in 64 bits");
        return -1;
    }
    if (slot_layout_required(&self->op_layout, (PyTypeObject *)op_cls,
                             op_names, OP_FIELDS) < 0)
        return -1;
    PyObject *random = PyObject_GetAttr(rng, s_random);
    if (random == NULL)
        return -1;
    PyObject *getrandbits = PyObject_GetAttr(rng, s_getrandbits);
    if (getrandbits == NULL) {
        Py_DECREF(random);
        return -1;
    }
    Py_XSETREF(self->rng_random, random);
    Py_XSETREF(self->rng_getrandbits, getrandbits);
    Py_XSETREF(self->issued, Py_NewRef(issued));
    Py_XSETREF(self->completed, Py_NewRef(completed));
    Py_XSETREF(self->last_lock, mode == 2 ? Py_NewRef(last_lock) : NULL);
    Py_XSETREF(self->zipf, mode == 1 ? Py_NewRef(zipf) : NULL);
    return 0;
}

/* Mode 3 selection: bind the mechanism's LFSR and policy counter and fix
 * the LFSR's taps, mask and width.  0 / -1 (ValueError on any shape the
 * C integer path cannot mirror exactly). */
static int
sstep_bind_adaptive(SequencerStepObject *self, PyObject *adaptive)
{
    PyObject *lfsr = PyObject_GetAttr(adaptive, s_lfsr);
    if (lfsr == NULL)
        return -1;
    PyObject *policy = PyObject_GetAttr(adaptive, s_policy_counter);
    if (policy == NULL) {
        Py_DECREF(lfsr);
        return -1;
    }
    int rc = -1;
    PyObject *shifts = PyObject_GetAttr(lfsr, s__tap_shifts);
    if (shifts == NULL)
        goto done;
    int error = 0;
    long long width = attr_ll(lfsr, s__width, &error);
    long long mask = error ? 0 : attr_ll(lfsr, s__mask, &error);
    long long bits = error ? 0 : attr_ll(policy, s__bits, &error);
    if (error)
        goto done;
    if (!PyTuple_CheckExact(shifts) || PyTuple_GET_SIZE(shifts) < 1 ||
        PyTuple_GET_SIZE(shifts) > BASH_MAX_TAPS || width < 1 ||
        width > 62 || mask != (1LL << width) - 1 || bits < 1 ||
        bits > BASH_MAX_POLICY_BITS) {
        PyErr_SetString(PyExc_ValueError,
                        "send_mode 3 needs an LFSR of at most 62 bits with "
                        "at most 8 taps and a policy counter of at most 53 "
                        "bits");
        goto done;
    }
    self->lfsr_taps = (int)PyTuple_GET_SIZE(shifts);
    for (int i = 0; i < self->lfsr_taps; i++) {
        long long shift = PyLong_AsLongLong(PyTuple_GET_ITEM(shifts, i));
        if (shift == -1 && PyErr_Occurred())
            goto done;
        if (shift < 0 || shift >= width) {
            PyErr_SetString(PyExc_ValueError, "LFSR tap outside the register");
            goto done;
        }
        self->lfsr_shifts[i] = (int)shift;
    }
    self->lfsr_mask = (unsigned long long)mask;
    self->lfsr_top = (int)(width - 1);
    self->policy_bits = (int)bits;
    Py_XSETREF(self->lfsr, Py_NewRef(lfsr));
    Py_XSETREF(self->policy, Py_NewRef(policy));
    rc = 0;
done:
    Py_XDECREF(shifts);
    Py_DECREF(policy);
    Py_DECREF(lfsr);
    return rc;
}

static PyObject *SequencerStep_vectorcall(SequencerStepObject *self,
                                          PyObject *const *args,
                                          size_t nargsf, PyObject *kwnames);

static int
SequencerStep_init(SequencerStepObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sequencer, *scheduler, *cache, *blocks, *transactions;
    PyObject *writebacks, *perform, *finish_stream, *next_operation;
    PyObject *schedule_after, *send;
    PyObject *perform_label, *retry_label;
    PyObject *ctr_hits, *ctr_misses, *sys_operations, *sys_instructions;
    PyObject *ctr_requests, *ctr_requests_gets, *ctr_requests_getm;
    PyObject *txn_cls, *txn_id_next, *msg_cls, *msg_id_next, *request_bytes;
    PyObject *on_complete = Py_None, *txn_pool = Py_None, *msg_pool = Py_None;
    PyObject *data_bytes = Py_None, *all_nodes = Py_None;
    PyObject *ctr_unicast = Py_None;
    PyObject *adaptive = Py_None, *sys_broadcast_decisions = Py_None;
    PyObject *sys_unicast_decisions = Py_None;
    PyObject *op_cls = Py_None, *rng = Py_None, *issued = Py_None;
    PyObject *completed = Py_None, *last_lock = Py_None, *zipf = Py_None;
    long long node_id, block_bytes, capacity, num_procs = 0;
    long long quota = 0, think = 0, jitter = 0, keys = 0, key_base = 0;
    long long op_block_bytes = 0;
    double zipf_total = 0.0, write_fraction = 0.0;
    int send_mode, source_mode = 0;
    static char *kwlist[] = {
        "sequencer",      "scheduler",         "cache",
        "node_id",        "block_bytes",       "capacity",
        "blocks",         "transactions",      "writebacks",
        "perform",        "finish_stream",     "next_operation",
        "schedule_after", "send",              "perform_label",
        "retry_label",    "ctr_hits",          "ctr_misses",
        "sys_operations", "sys_instructions",  "ctr_requests",
        "ctr_requests_gets",                   "ctr_requests_getm",
        "txn_cls",        "txn_id_next",       "msg_cls",
        "msg_id_next",    "request_bytes",     "send_mode",
        "on_complete",    "txn_pool",          "msg_pool",
        "data_bytes",     "all_nodes",         "ctr_unicast",
        "adaptive",       "sys_broadcast_decisions",
        "sys_unicast_decisions",               "num_procs",
        "source_mode",    "op_cls",            "rng",
        "issued",         "completed",         "last_lock",
        "zipf",           "quota",             "think",
        "jitter",         "keys",              "key_base",
        "op_block_bytes", "zipf_total",        "write_fraction",
        NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds,
            "OOOLLLOOOOOOOOOOOOOOOOOOOOOOi|OOOOOOOOOLiOOOOOOLLLLLLdd",
            kwlist, &sequencer, &scheduler, &cache, &node_id, &block_bytes,
            &capacity, &blocks, &transactions, &writebacks, &perform,
            &finish_stream, &next_operation, &schedule_after, &send,
            &perform_label, &retry_label, &ctr_hits, &ctr_misses,
            &sys_operations, &sys_instructions, &ctr_requests,
            &ctr_requests_gets, &ctr_requests_getm, &txn_cls, &txn_id_next,
            &msg_cls, &msg_id_next, &request_bytes, &send_mode, &on_complete,
            &txn_pool, &msg_pool, &data_bytes, &all_nodes, &ctr_unicast,
            &adaptive, &sys_broadcast_decisions,
            &sys_unicast_decisions, &num_procs, &source_mode, &op_cls, &rng,
            &issued, &completed, &last_lock, &zipf, &quota, &think, &jitter,
            &keys, &key_base, &op_block_bytes, &zipf_total, &write_fraction))
        return -1;
    if (!protocol_injected())
        return -1;
    if (!core_scheduler_check(scheduler)) {
        PyErr_SetString(PyExc_TypeError,
                        "SequencerStep requires a compiled SchedulerBase");
        return -1;
    }
    if (!PyDict_Check(blocks) || !PyDict_Check(transactions) ||
        !PyDict_Check(writebacks)) {
        PyErr_SetString(PyExc_TypeError,
                        "blocks, transactions and writebacks must be dicts");
        return -1;
    }
    if (block_bytes <= 0 || capacity <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "block_bytes and capacity must be positive");
        return -1;
    }
    if (send_mode < 1 || send_mode > 3) {
        PyErr_SetString(PyExc_ValueError, "send_mode must be 1, 2 or 3");
        return -1;
    }
    if (source_mode < 0 || source_mode > 2) {
        PyErr_SetString(PyExc_ValueError, "source_mode must be 0, 1 or 2");
        return -1;
    }
    self->source_mode = source_mode;
    if (source_mode != 0) {
        self->quota = quota;
        self->think = think;
        self->jitter = jitter;
        self->keys = keys;
        self->key_base = key_base;
        self->op_block_bytes = op_block_bytes;
        self->zipf_total = zipf_total;
        self->write_fraction = write_fraction;
        if (sstep_bind_source(self, op_cls, rng, issued, completed, last_lock,
                              zipf) < 0) {
            self->source_mode = 0;
            return -1;
        }
    }
    if ((txn_pool != Py_None && !PyList_Check(txn_pool)) ||
        (msg_pool != Py_None && !PyList_Check(msg_pool))) {
        PyErr_SetString(PyExc_TypeError, "arena pools must be lists or None");
        return -1;
    }
    if (!PyCallable_Check(send)) {
        PyErr_SetString(PyExc_TypeError, "send must be callable");
        return -1;
    }
    if ((send_mode == 1 || send_mode == 3) && all_nodes == Py_None) {
        PyErr_SetString(PyExc_TypeError,
                        "send modes 1 and 3 require all_nodes");
        return -1;
    }
    if (send_mode == 3) {
        if (adaptive == Py_None || sys_broadcast_decisions == Py_None ||
            sys_unicast_decisions == Py_None || num_procs <= 0) {
            PyErr_SetString(PyExc_TypeError,
                            "send_mode 3 requires adaptive, the decision "
                            "counters and num_procs");
            return -1;
        }
        if (sstep_bind_adaptive(self, adaptive) < 0)
            return -1;
    }
    if (send_mode == 2 &&
        (num_procs <= 0 || ctr_unicast == Py_None || data_bytes == Py_None)) {
        PyErr_SetString(PyExc_TypeError,
                        "send_mode 2 requires num_procs, ctr_unicast and "
                        "data_bytes");
        return -1;
    }
    self->node_id = node_id;
    self->block_bytes = block_bytes;
    self->capacity = capacity;
    self->send_mode = send_mode;
    PyObject *node_id_obj = PyLong_FromLongLong(node_id);
    if (node_id_obj == NULL)
        return -1;
    Py_XSETREF(self->node_id_obj, node_id_obj);
#define STORE_REQ(field, value)                                                \
    do {                                                                       \
        Py_INCREF(value);                                                      \
        Py_XSETREF(self->field, value);                                        \
    } while (0)
    STORE_REQ(sequencer, sequencer);
    STORE_REQ(scheduler, scheduler);
    STORE_REQ(cache, cache);
    STORE_REQ(blocks, blocks);
    STORE_REQ(transactions, transactions);
    STORE_REQ(writebacks, writebacks);
    STORE_REQ(perform, perform);
    STORE_REQ(finish_stream, finish_stream);
    STORE_REQ(next_operation, next_operation);
    STORE_REQ(schedule_after, schedule_after);
    STORE_REQ(send, send);
    STORE_REQ(perform_label, perform_label);
    STORE_REQ(retry_label, retry_label);
    STORE_REQ(ctr_hits, ctr_hits);
    STORE_REQ(ctr_misses, ctr_misses);
    STORE_REQ(sys_operations, sys_operations);
    STORE_REQ(sys_instructions, sys_instructions);
    STORE_REQ(ctr_requests, ctr_requests);
    STORE_REQ(ctr_requests_gets, ctr_requests_gets);
    STORE_REQ(ctr_requests_getm, ctr_requests_getm);
    STORE_REQ(txn_cls, txn_cls);
    STORE_REQ(txn_id_next, txn_id_next);
    STORE_REQ(msg_cls, msg_cls);
    STORE_REQ(msg_id_next, msg_id_next);
    STORE_REQ(request_bytes, request_bytes);
#undef STORE_REQ
#define STORE_OPT(field, value)                                                \
    do {                                                                       \
        PyObject *boxed = (value) == Py_None ? NULL : (value);                 \
        Py_XINCREF(boxed);                                                     \
        Py_XSETREF(self->field, boxed);                                       \
    } while (0)
    STORE_OPT(on_complete, on_complete);
    STORE_OPT(txn_pool, txn_pool);
    STORE_OPT(msg_pool, msg_pool);
    STORE_OPT(data_bytes, data_bytes);
    STORE_OPT(all_nodes, all_nodes);
    STORE_OPT(ctr_unicast, ctr_unicast);
    STORE_OPT(adaptive, adaptive);
    STORE_OPT(sys_broadcast_decisions, sys_broadcast_decisions);
    STORE_OPT(sys_unicast_decisions, sys_unicast_decisions);
#undef STORE_OPT
    self->num_procs = num_procs;
    PyObject *complete_cb = PyObject_GetAttr((PyObject *)self, s_complete);
    if (complete_cb == NULL)
        return -1;
    Py_XSETREF(self->complete_cb, complete_cb);
    self->vectorcall = (vectorcallfunc)SequencerStep_vectorcall;
    return 0;
}

static int
SequencerStep_traverse(SequencerStepObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->node_id_obj);
    Py_VISIT(self->sequencer);
    Py_VISIT(self->scheduler);
    Py_VISIT(self->cache);
    Py_VISIT(self->blocks);
    Py_VISIT(self->transactions);
    Py_VISIT(self->writebacks);
    Py_VISIT(self->perform);
    Py_VISIT(self->finish_stream);
    Py_VISIT(self->next_operation);
    Py_VISIT(self->on_complete);
    Py_VISIT(self->schedule_after);
    Py_VISIT(self->perform_label);
    Py_VISIT(self->retry_label);
    Py_VISIT(self->ctr_hits);
    Py_VISIT(self->ctr_misses);
    Py_VISIT(self->sys_operations);
    Py_VISIT(self->sys_instructions);
    Py_VISIT(self->ctr_requests);
    Py_VISIT(self->ctr_requests_gets);
    Py_VISIT(self->ctr_requests_getm);
    Py_VISIT(self->txn_cls);
    Py_VISIT(self->txn_pool);
    Py_VISIT(self->txn_id_next);
    Py_VISIT(self->msg_cls);
    Py_VISIT(self->msg_pool);
    Py_VISIT(self->msg_id_next);
    Py_VISIT(self->request_bytes);
    Py_VISIT(self->data_bytes);
    Py_VISIT(self->all_nodes);
    Py_VISIT(self->send);
    Py_VISIT(self->ctr_unicast);
    Py_VISIT(self->complete_cb);
    Py_VISIT(self->adaptive);
    Py_VISIT(self->lfsr);
    Py_VISIT(self->policy);
    Py_VISIT(self->sys_broadcast_decisions);
    Py_VISIT(self->sys_unicast_decisions);
    Py_VISIT(self->rng_random);
    Py_VISIT(self->rng_getrandbits);
    Py_VISIT(self->issued);
    Py_VISIT(self->completed);
    Py_VISIT(self->last_lock);
    Py_VISIT(self->zipf);
    Py_VISIT(self->op_layout.cls);
    return 0;
}

static int
SequencerStep_clear(SequencerStepObject *self)
{
    Py_CLEAR(self->node_id_obj);
    Py_CLEAR(self->sequencer);
    Py_CLEAR(self->scheduler);
    Py_CLEAR(self->cache);
    Py_CLEAR(self->blocks);
    Py_CLEAR(self->transactions);
    Py_CLEAR(self->writebacks);
    Py_CLEAR(self->perform);
    Py_CLEAR(self->finish_stream);
    Py_CLEAR(self->next_operation);
    Py_CLEAR(self->on_complete);
    Py_CLEAR(self->schedule_after);
    Py_CLEAR(self->perform_label);
    Py_CLEAR(self->retry_label);
    Py_CLEAR(self->ctr_hits);
    Py_CLEAR(self->ctr_misses);
    Py_CLEAR(self->sys_operations);
    Py_CLEAR(self->sys_instructions);
    Py_CLEAR(self->ctr_requests);
    Py_CLEAR(self->ctr_requests_gets);
    Py_CLEAR(self->ctr_requests_getm);
    Py_CLEAR(self->txn_cls);
    Py_CLEAR(self->txn_pool);
    Py_CLEAR(self->txn_id_next);
    Py_CLEAR(self->msg_cls);
    Py_CLEAR(self->msg_pool);
    Py_CLEAR(self->msg_id_next);
    Py_CLEAR(self->request_bytes);
    Py_CLEAR(self->data_bytes);
    Py_CLEAR(self->all_nodes);
    Py_CLEAR(self->send);
    Py_CLEAR(self->ctr_unicast);
    Py_CLEAR(self->complete_cb);
    Py_CLEAR(self->adaptive);
    Py_CLEAR(self->lfsr);
    Py_CLEAR(self->policy);
    Py_CLEAR(self->sys_broadcast_decisions);
    Py_CLEAR(self->sys_unicast_decisions);
    Py_CLEAR(self->rng_random);
    Py_CLEAR(self->rng_getrandbits);
    Py_CLEAR(self->issued);
    Py_CLEAR(self->completed);
    Py_CLEAR(self->last_lock);
    Py_CLEAR(self->zipf);
    Py_CLEAR(self->op_layout.cls);
    self->source_mode = 0;
    return 0;
}

static void
SequencerStep_dealloc(SequencerStepObject *self)
{
    PyObject_GC_UnTrack(self);
    SequencerStep_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* home_of(address) with the stock block-interleaved mapping inlined (the
 * miss path's block addresses are non-negative ints).  New reference. */
static PyObject *
home_for(SequencerStepObject *self, PyObject *address)
{
    long long addr = PyLong_AsLongLong(address);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong((addr / self->block_bytes) % self->num_procs);
}

/* BandwidthAdaptiveMechanism.should_broadcast: one policy_bits-wide LFSR
 * draw (LinearFeedbackShiftRegister.next_bits, bit by bit), compared
 * against the policy counter, plus the mechanism's decision tally.
 * 1 broadcast, 0 unicast, -1 error. */
static int
sstep_bash_decide(SequencerStepObject *self)
{
    int error = 0;
    long long raw = attr_ll(self->lfsr, s__state, &error);
    if (error)
        return -1;
    if (raw < 0) {
        PyErr_SetString(PyExc_ValueError, "negative LFSR state");
        return -1;
    }
    unsigned long long state = (unsigned long long)raw;
    unsigned long long drawn = 0;
    for (int i = 0; i < self->policy_bits; i++) {
        unsigned long long feedback = 0;
        for (int k = 0; k < self->lfsr_taps; k++)
            feedback ^= (state >> self->lfsr_shifts[k]) & 1ULL;
        drawn = (drawn << 1) | (state & 1ULL);
        state = ((state >> 1) | (feedback << self->lfsr_top)) &
                self->lfsr_mask;
    }
    PyObject *state_obj = PyLong_FromUnsignedLongLong(state);
    if (state_obj == NULL)
        return -1;
    int rc = PyObject_SetAttr(self->lfsr, s__state, state_obj);
    Py_DECREF(state_obj);
    if (rc < 0)
        return -1;
    long long policy = attr_ll(self->policy, s__value, &error);
    if (error)
        return -1;
    int broadcast = policy < 0 || (unsigned long long)policy <= drawn;
    if (bump_attr(self->adaptive, broadcast ? s__broadcasts : s__unicasts,
                  ll_one) < 0)
        return -1;
    return broadcast;
}

/* frozenset({home, node}) for `address`: the BASH dualcast recipients,
 * with the stock block-interleaved home mapping inlined. */
static PyObject *
sstep_dualcast(SequencerStepObject *self, PyObject *address)
{
    PyObject *home = home_for(self, address);
    if (home == NULL)
        return NULL;
    PyObject *recipients = PyFrozenSet_New(NULL);
    if (recipients == NULL || PySet_Add(recipients, home) < 0 ||
        PySet_Add(recipients, self->node_id_obj) < 0) {
        Py_XDECREF(recipients);
        Py_DECREF(home);
        return NULL;
    }
    Py_DECREF(home);
    return recipients;
}

/* Modes 1 and 3: the snooping _send_request (GETS/GETM) or _send_writeback
 * (PUTM) body.  Build the message as _build_request_message does
 * (unpooled, default recipients), choose the recipients -- every node in
 * mode 1; in mode 3 BASH's adaptive decision for a request and the
 * {home, requester} dualcast for a writeback -- count a request, and hand
 * message and recipients to the controller's _ordered_send.  0 / -1. */
static int
sstep_ordered_send(SequencerStepObject *self, PyObject *txn, PyObject *kind,
                   PyObject *address, PyObject *txn_id, PyObject *token,
                   PyObject *now_obj)
{
    int request = kind != MT_PUTM;
    PyObject *msg = build_message(
        NULL, self->msg_cls, self->msg_id_next, kind, self->node_id_obj,
        address, self->request_bytes, self->node_id_obj, Py_None, DU_CACHE_U,
        EMPTY_RECIPIENTS, txn_id, Py_False, token, now_obj);
    if (msg == NULL)
        return -1;
    int rc = 0;
    int broadcast = self->send_mode == 1;
    if (request && !broadcast) {
        /* transaction.was_broadcast is True unless the decision says no. */
        broadcast = sstep_bash_decide(self);
        if (broadcast < 0 ||
            PyObject_SetAttr(txn, s_was_broadcast,
                             broadcast ? Py_True : Py_False) < 0 ||
            count_stat(self->cache, broadcast ? n_broadcast_decisions
                                              : n_unicast_decisions) < 0 ||
            bump_attr(broadcast ? self->sys_broadcast_decisions
                                : self->sys_unicast_decisions,
                      s__count, ll_one) < 0)
            rc = -1;
    }
    PyObject *recipients = NULL;
    if (rc == 0) {
        recipients = broadcast ? Py_NewRef(self->all_nodes)
                               : sstep_dualcast(self, address);
        if (recipients == NULL)
            rc = -1;
    }
    if (rc == 0 && request)
        rc = count_stat(self->cache, broadcast ? n_broadcast_requests
                                               : n_unicast_requests);
    if (rc == 0) {
        PyObject *argv[2] = {msg, recipients};
        PyObject *result = PyObject_Vectorcall(self->send, argv, 2, NULL);
        if (result == NULL)
            rc = -1;
        Py_XDECREF(result);
    }
    Py_XDECREF(recipients);
    Py_DECREF(msg);
    return rc;
}

/* issue_request's bookkeeping + the protocol _send_request, inlined.  The
 * validation guards at the top of the pure issue_request are all
 * guaranteed-pass from the miss path (the hit test failed, the in-flight
 * check was done), so skipping them is faithful.  Returns the new
 * transaction (new reference), already registered. */
static PyObject *
sstep_issue_request(SequencerStepObject *self, PyObject *address,
                    PyObject *kind, PyObject *token, PyObject *now_obj,
                    PyObject *block, PyObject *state)
{
    int is_getm = (kind == MT_GETM);
    PyObject *txn = alloc_from(self->txn_pool, self->txn_cls);
    if (txn == NULL)
        return NULL;
    PyObject *txn_id = PyObject_CallNoArgs(self->txn_id_next);
    if (txn_id == NULL) {
        Py_DECREF(txn);
        return NULL;
    }
    if (txn_set_fields(txn, address, kind, self->node_id_obj, now_obj, token,
                       Py_True, self->complete_cb, txn_id) < 0)
        goto fail;
    if (PyDict_SetItem(self->transactions, address, txn) < 0)
        goto fail;
    if (bump_attr(self->ctr_requests, s__count, ll_one) < 0 ||
        bump_attr(is_getm ? self->ctr_requests_getm : self->ctr_requests_gets,
                  s__count, ll_one) < 0)
        goto fail;
    if (self->send_mode != 2) {
        if (sstep_ordered_send(self, txn, kind, address, txn_id, token,
                               now_obj) < 0)
            goto fail;
    }
    else {
        /* Directory: unicast to the home, pooled message, owner-upgrade
         * downgrade of expects_data, then the unordered send. */
        if (is_getm && block != NULL &&
            (state == ST_MODIFIED || state == ST_OWNED) &&
            PyObject_SetAttr(txn, s_expects_data, Py_False) < 0)
            goto fail;
        if (PyObject_SetAttr(txn, s_was_broadcast, Py_False) < 0)
            goto fail;
        PyObject *dest = home_for(self, address);
        if (dest == NULL)
            goto fail;
        PyObject *msg = build_message(
            self->msg_pool, self->msg_cls, self->msg_id_next, kind,
            self->node_id_obj, address, self->request_bytes,
            self->node_id_obj, dest, DU_MEMORY_U, EMPTY_RECIPIENTS, txn_id,
            Py_False, token, now_obj);
        Py_DECREF(dest);
        if (msg == NULL)
            goto fail;
        if (bump_attr(self->ctr_unicast, s__count, ll_one) < 0 ||
            call_discard1(self->send, msg) < 0) {
            Py_DECREF(msg);
            goto fail;
        }
        Py_DECREF(msg);
    }
    Py_DECREF(txn_id);
    return txn;
fail:
    Py_DECREF(txn_id);
    Py_DECREF(txn);
    return NULL;
}

/* issue_writeback for the evicted owner block + the protocol
 * _send_writeback, inlined (same guaranteed-pass argument: the caller just
 * verified ownership and the in-flight dicts). */
static int
sstep_issue_writeback(SequencerStepObject *self, PyObject *address,
                      PyObject *victim, PyObject *now_obj)
{
    PyObject *txn = alloc_from(self->txn_pool, self->txn_cls);
    if (txn == NULL)
        return -1;
    PyObject *txn_id = PyObject_CallNoArgs(self->txn_id_next);
    if (txn_id == NULL) {
        Py_DECREF(txn);
        return -1;
    }
    if (txn_set_fields(txn, address, MT_PUTM, self->node_id_obj, now_obj,
                       ll_zero, Py_False, Py_None, txn_id) < 0)
        goto fail;
    if (PyDict_SetItem(self->writebacks, address, txn) < 0)
        goto fail;
    if (count_stat(self->cache, n_writebacks) < 0)
        goto fail;
    if (self->send_mode != 2) {
        /* A PUTM carrying the request-message size and the transaction's
         * (zero) store token. */
        if (sstep_ordered_send(self, txn, MT_PUTM, address, txn_id, ll_zero,
                               now_obj) < 0)
            goto fail;
    }
    else {
        /* Directory: a pooled data-sized PUTM to the home carrying the
         * victim block's data token. */
        PyObject *data_token = PyObject_GetAttr(victim, s_data_token);
        if (data_token == NULL)
            goto fail;
        PyObject *dest = home_for(self, address);
        if (dest == NULL) {
            Py_DECREF(data_token);
            goto fail;
        }
        PyObject *msg = build_message(
            self->msg_pool, self->msg_cls, self->msg_id_next, MT_PUTM,
            self->node_id_obj, address, self->data_bytes, self->node_id_obj,
            dest, DU_MEMORY_U, EMPTY_RECIPIENTS, txn_id, Py_False,
            data_token, now_obj);
        Py_DECREF(dest);
        Py_DECREF(data_token);
        if (msg == NULL)
            goto fail;
        int rc = call_discard1(self->send, msg);
        Py_DECREF(msg);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(txn_id);
    Py_DECREF(txn);
    return 0;
fail:
    Py_DECREF(txn_id);
    Py_DECREF(txn);
    return -1;
}

/* ------------------------------------------------ reference sources (1, 2) */

/* A workload dict's entry for this node as long long: 1 read, 0 when the
 * entry is missing, not an exact int or out of range (no error set), -1
 * on error. */
static int
source_entry(SequencerStepObject *self, PyObject *dict, long long *out)
{
    PyObject *value = PyDict_GetItemWithError(dict, self->node_id_obj);
    if (value == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!PyLong_CheckExact(value))
        return 0;
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return !overflow && *out < LLONG_MAX;
}

/* dict[node_id] = value; 0 / -1. */
static int
source_store(SequencerStepObject *self, PyObject *dict, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    int rc = PyDict_SetItem(dict, self->node_id_obj, boxed);
    Py_DECREF(boxed);
    return rc;
}

/* rng.random(); 0 / -1. */
static int
source_random(SequencerStepObject *self, double *out)
{
    PyObject *draw = PyObject_CallNoArgs(self->rng_random);
    if (draw == NULL)
        return -1;
    *out = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* rng.randrange(n) for 0 < n < 2**62, as CPython 3.10-3.12 write it
 * (_randbelow_with_getrandbits): k = n.bit_length(), then getrandbits(k)
 * until the draw is below n.  -1 with an error set. */
static long long
source_randbelow(SequencerStepObject *self, long long n)
{
    PyObject *bits =
        PyLong_FromLong(64 - __builtin_clzll((unsigned long long)n));
    if (bits == NULL)
        return -1;
    long long draw;
    do {
        PyObject *value = PyObject_CallOneArg(self->rng_getrandbits, bits);
        if (value == NULL) {
            draw = -1;
            break;
        }
        draw = PyLong_AsLongLong(value);
        Py_DECREF(value);
    } while (draw >= n);
    Py_DECREF(bits);
    return draw;
}

/* think_cycles plus the optional randrange(jitter + 1); -1 on error. */
static long long
source_think(SequencerStepObject *self)
{
    if (self->jitter == 0)
        return self->think;
    long long extra = source_randbelow(self, self->jitter + 1);
    return extra < 0 ? -1 : self->think + extra;
}

/* MemoryOperation(address, is_write, think, 0, label), built as
 * alloc_from builds a Transaction: a blank instance of the class, then
 * every field assigned, here straight into its slots. */
static PyObject *
source_operation(SequencerStepObject *self, long long address, int is_write,
                 long long think, PyObject *label)
{
    PyTypeObject *cls = self->op_layout.cls;
    PyObject *operation = cls->tp_new(cls, issue_empty_tuple, NULL);
    if (operation == NULL)
        return NULL;
    const Py_ssize_t *slots = self->op_layout.offsets;
    if (slot_store(operation, slots[OP_ADDRESS],
                   PyLong_FromLongLong(address)) < 0 ||
        slot_store(operation, slots[OP_IS_WRITE], PyBool_FromLong(is_write)) <
            0 ||
        slot_store(operation, slots[OP_THINK_CYCLES],
                   PyLong_FromLongLong(think)) < 0 ||
        slot_store(operation, slots[OP_INSTRUCTIONS], Py_NewRef(ll_zero)) <
            0 ||
        slot_store(operation, slots[OP_LABEL], Py_NewRef(label)) < 0) {
        Py_DECREF(operation);
        return NULL;
    }
    return operation;
}

/* TrafficWorkload.next_operation on a stationary workload: the quota
 * test, then _draw_operation's draws (the Zipf key, read or write, the
 * think jitter) from the node's RNG. */
static PyObject *
source_traffic(SequencerStepObject *self, long long issued)
{
    double key_draw, write_draw;
    if (source_random(self, &key_draw) < 0)
        return NULL;
    long long rank = zipf_rank((ZipfTableObject *)self->zipf,
                               key_draw * self->zipf_total, self->keys);
    if (source_random(self, &write_draw) < 0)
        return NULL;
    int is_write = write_draw < self->write_fraction;
    long long think = source_think(self);
    if (think < 0)
        return NULL;
    PyObject *operation = source_operation(
        self, (self->key_base + rank) * self->op_block_bytes, is_write, think,
        is_write ? s_svc_write : s_svc_read);
    if (operation != NULL &&
        source_store(self, self->issued, issued + 1) < 0)
        Py_CLEAR(operation);
    return operation;
}

/* LockingMicrobenchmark.next_operation: a lock from the shared RNG,
 * stepped past the node's last one (`last`, read before any draw). */
static PyObject *
source_locking(SequencerStepObject *self, long long issued, long long last)
{
    long long lock = source_randbelow(self, self->keys);
    if (lock < 0)
        return NULL;
    if (lock == last)
        lock = (lock + 1) % self->keys;
    if (source_store(self, self->last_lock, lock) < 0 ||
        source_store(self, self->issued, issued + 1) < 0)
        return NULL;
    long long think = source_think(self);
    if (think < 0)
        return NULL;
    return source_operation(self, lock * self->op_block_bytes, 1, think,
                            s_lock_acquire);
}

/* The workload's next reference in C: 1 with *operation (a new reference,
 * None when the node's quota is done), 0 when this call must go to the
 * bound Python next_operation (an odd dict entry, or the operation class
 * modified since selection; nothing drawn yet), -1 on error. */
static int
source_next(SequencerStepObject *self, PyObject **operation)
{
    long long issued, last = 0;
    PyTypeObject *cls = self->op_layout.cls;
    if (cls->tp_version_tag != self->op_layout.version)
        return 0;
    int rc = source_entry(self, self->issued, &issued);
    if (rc <= 0)
        return rc;
    if (issued >= self->quota) {
        *operation = Py_NewRef(Py_None);
        return 1;
    }
    if (self->source_mode == 2) {
        rc = source_entry(self, self->last_lock, &last);
        if (rc <= 0)
            return rc;
    }
    *operation = self->source_mode == 1 ? source_traffic(self, issued)
                                        : source_locking(self, issued, last);
    return *operation == NULL ? -1 : 1;
}

/* The workload's on_complete count: traffic's
 * `_completed[node] = _completed.get(node, 0) + 1`, locking's
 * `_completed[node] += 1`.  1 counted, 0 when the bound Python method
 * must run instead (nothing written), -1 on error. */
static int
source_complete(SequencerStepObject *self)
{
    long long completed = 0;
    int rc = source_entry(self, self->completed, &completed);
    if (rc < 0)
        return -1;
    if (rc == 0) {
        int present = PyDict_Contains(self->completed, self->node_id_obj);
        if (present != 0 || self->source_mode != 1)
            return present < 0 ? -1 : 0;
    }
    return source_store(self, self->completed, completed + 1) < 0 ? -1 : 1;
}

/* _finish_stream: the reference stream is exhausted. */
static int
sstep_finish(SequencerStepObject *self)
{
    PyObject *result = PyObject_CallNoArgs(self->finish_stream);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* _fetch_next: ask the workload for the next reference (in C for source
 * modes 1 and 2); reschedule this step after the think time, or finish
 * the stream. */
static int
sstep_fetch_next(SequencerStepObject *self)
{
    long long now = core_scheduler_now(self->scheduler);
    if (self->source_mode != 0) {
        PyObject *operation = NULL;
        int rc = source_next(self, &operation);
        if (rc < 0)
            return -1;
        if (rc > 0) {
            if (operation == Py_None) {
                Py_DECREF(operation);
                return sstep_finish(self);
            }
            /* think_cycles was drawn non-negative. */
            long long think = 0;
            slot_ll(operation, self->op_layout.offsets[OP_THINK_CYCLES],
                    &think);
            rc = core_push_fast(self->scheduler, now + think,
                                (PyObject *)self, self->perform_label,
                                operation);
            Py_DECREF(operation);
            return rc;
        }
    }
    PyObject *now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL)
        return -1;
    PyObject *argv[2] = {self->node_id_obj, now_obj};
    PyObject *operation =
        PyObject_Vectorcall(self->next_operation, argv, 2, NULL);
    if (operation == NULL) {
        Py_DECREF(now_obj);
        return -1;
    }
    if (operation == Py_None) {
        Py_DECREF(operation);
        Py_DECREF(now_obj);
        return sstep_finish(self);
    }
    int rc = -1;
    PyObject *think = PyObject_GetAttr(operation, s_think_cycles);
    if (think == NULL)
        goto done;
    if (PyLong_CheckExact(think)) {
        long long t = PyLong_AsLongLong(think);
        if (t == -1 && PyErr_Occurred())
            PyErr_Clear(); /* doesn't fit: take the generic path below */
        else {
            long long delay = t > 0 ? t : 0;
            rc = core_push_fast(self->scheduler, now + delay,
                                (PyObject *)self, self->perform_label,
                                operation);
            goto done;
        }
    }
    {
        /* Generic think values route through the stored bound
         * schedule_after_fast1, matching `think if think > 0 else 0`. */
        int positive = PyObject_RichCompareBool(think, ll_zero, Py_GT);
        if (positive < 0)
            goto done;
        PyObject *argv4[4] = {positive ? think : ll_zero, (PyObject *)self,
                              operation, self->perform_label};
        PyObject *result =
            PyObject_Vectorcall(self->schedule_after, argv4, 4, NULL);
        if (result == NULL)
            goto done;
        Py_DECREF(result);
        rc = 0;
    }
done:
    Py_XDECREF(think);
    Py_DECREF(operation);
    Py_DECREF(now_obj);
    return rc;
}

/* _account: completion bookkeeping plus the workload's count (in C for
 * source modes 1 and 2) or its optional hook, then the next fetch. */
static int
sstep_account(SequencerStepObject *self, PyObject *operation,
              PyObject *latency, int was_miss, PyObject *now_obj)
{
    if (bump_attr(self->sequencer, s_operations_completed, ll_one) < 0)
        return -1;
    PyObject *instructions = PyObject_GetAttr(operation, s_instructions);
    if (instructions == NULL)
        return -1;
    if (bump_attr(self->sequencer, s_instructions, instructions) < 0 ||
        bump_attr(self->sys_operations, s__count, ll_one) < 0 ||
        bump_attr(self->sys_instructions, s__count, instructions) < 0) {
        Py_DECREF(instructions);
        return -1;
    }
    Py_DECREF(instructions);
    if (self->source_mode != 0) {
        int rc = source_complete(self);
        if (rc < 0)
            return -1;
        if (rc > 0)
            return sstep_fetch_next(self);
    }
    if (self->on_complete != NULL) {
        PyObject *argv[5] = {self->node_id_obj, operation, latency,
                             was_miss ? Py_True : Py_False, now_obj};
        PyObject *result =
            PyObject_Vectorcall(self->on_complete, argv, 5, NULL);
        if (result == NULL)
            return -1;
        Py_DECREF(result);
    }
    return sstep_fetch_next(self);
}

/* Delegate the whole step to the stored bound Sequencer._perform.  Only
 * legal while no C-side mutation has happened. */
static PyObject *
sstep_bail(SequencerStepObject *self, PyObject *operation)
{
    if (PyErr_Occurred())
        PyErr_Clear();
    return PyObject_CallOneArg(self->perform, operation);
}

/* The fused _perform + _fetch_next chain. */
static PyObject *
SequencerStep_vectorcall(SequencerStepObject *self, PyObject *const *args,
                         size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("SequencerStep", nargsf, kwnames, 1))
        return NULL;
    PyObject *operation = args[0];
    long long now = core_scheduler_now(self->scheduler);
    PyObject *address_obj = PyObject_GetAttr(operation, s_address);
    if (address_obj == NULL)
        return NULL; /* pure raises identically before any mutation */
    if (!PyLong_CheckExact(address_obj)) {
        Py_DECREF(address_obj);
        return sstep_bail(self, operation);
    }
    long long address = PyLong_AsLongLong(address_obj);
    Py_DECREF(address_obj);
    if ((address == -1 && PyErr_Occurred()) || address < 0)
        return sstep_bail(self, operation);
    address -= address % self->block_bytes;
    PyObject *addr_obj = PyLong_FromLongLong(address);
    if (addr_obj == NULL)
        return NULL;
    PyObject *result = NULL;
    PyObject *now_obj = NULL;
    PyObject *state = NULL;
    PyObject *block = PyDict_GetItemWithError(self->blocks, addr_obj);
    if (block == NULL) {
        if (PyErr_Occurred())
            goto done;
        state = ST_INVALID;
        Py_INCREF(state);
    }
    else {
        Py_INCREF(block);
        state = PyObject_GetAttr(block, s_state);
        if (state == NULL)
            goto done;
        if (state != ST_MODIFIED && state != ST_OWNED &&
            state != ST_SHARED && state != ST_INVALID) {
            result = sstep_bail(self, operation);
            goto done;
        }
    }
    int is_write = attr_truth(operation, s_is_write);
    if (is_write < 0)
        goto done;
    int hit = is_write ? state == ST_MODIFIED : state != ST_INVALID;
    now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL)
        goto done;
    if (hit) {
        /* _complete_hit(operation, block): the hit test guarantees the
         * block exists. */
        if (bump_attr(self->sequencer, s_hits, ll_one) < 0 ||
            bump_attr(self->ctr_hits, s__count, ll_one) < 0 ||
            PyObject_SetAttr(block, s_last_access_time, now_obj) < 0)
            goto done;
        if (sstep_account(self, operation, ll_zero, 0, now_obj) < 0)
            goto done;
        result = Py_NewRef(Py_None);
        goto done;
    }
    /* Miss.  A request or writeback still in flight for this block means
     * retry shortly (the pure path's 10-cycle busy retry). */
    {
        int in_txn = PyDict_Contains(self->transactions, addr_obj);
        if (in_txn < 0)
            goto done;
        int in_wb = in_txn ? 0 : PyDict_Contains(self->writebacks, addr_obj);
        if (in_wb < 0)
            goto done;
        if (in_txn || in_wb) {
            if (core_push_fast(self->scheduler, now + 10, (PyObject *)self,
                               self->retry_label, operation) < 0)
                goto done;
            result = Py_NewRef(Py_None);
            goto done;
        }
    }
    /* Eviction: one scan computes both the occupancy (is_full) and the LRU
     * victim — min by (last_access_time, address), first-minimal kept, the
     * same decision the pure is_full() + eviction_candidate() pair makes.
     * Any unusual block shape bails out the whole step before mutating. */
    if (PyDict_GET_SIZE(self->blocks) >= self->capacity) {
        Py_ssize_t pos = 0;
        PyObject *key, *value;
        PyObject *victim = NULL;
        PyObject *victim_state = NULL;
        long long victim_last = 0, victim_addr = 0, valid = 0;
        int bail = 0;
        while (PyDict_Next(self->blocks, &pos, &key, &value)) {
            PyObject *block_state = PyObject_GetAttr(value, s_state);
            if (block_state == NULL)
                goto done;
            if (block_state != ST_MODIFIED && block_state != ST_OWNED &&
                block_state != ST_SHARED && block_state != ST_INVALID) {
                Py_DECREF(block_state);
                bail = 1;
                break;
            }
            if (block_state == ST_INVALID) {
                Py_DECREF(block_state);
                continue;
            }
            valid += 1;
            int error = 0;
            long long last = attr_ll(value, s_last_access_time, &error);
            long long baddr =
                error ? -1 : attr_ll(value, s_address, &error);
            if (error) {
                Py_DECREF(block_state);
                bail = 1;
                break;
            }
            if (victim == NULL || last < victim_last ||
                (last == victim_last && baddr < victim_addr)) {
                victim = value;
                Py_XSETREF(victim_state, block_state);
                victim_last = last;
                victim_addr = baddr;
            }
            else
                Py_DECREF(block_state);
        }
        if (bail) {
            Py_XDECREF(victim_state);
            result = sstep_bail(self, operation);
            goto done;
        }
        if (valid >= self->capacity && victim != NULL) {
            PyObject *victim_addr_obj = PyLong_FromLongLong(victim_addr);
            if (victim_addr_obj == NULL) {
                Py_XDECREF(victim_state);
                goto done;
            }
            int in_txn = PyDict_Contains(self->transactions, victim_addr_obj);
            int in_wb =
                in_txn > 0
                    ? 0
                    : (in_txn < 0
                           ? -1
                           : PyDict_Contains(self->writebacks,
                                             victim_addr_obj));
            if (in_txn < 0 || in_wb < 0) {
                Py_DECREF(victim_addr_obj);
                Py_XDECREF(victim_state);
                goto done;
            }
            if (!in_txn && !in_wb) {
                if (victim_state == ST_MODIFIED || victim_state == ST_OWNED) {
                    if (count_stat(self->sequencer, n_evictions_writeback) <
                            0 ||
                        sstep_issue_writeback(self, victim_addr_obj, victim,
                                              now_obj) < 0) {
                        Py_DECREF(victim_addr_obj);
                        Py_XDECREF(victim_state);
                        goto done;
                    }
                }
                else {
                    /* Silent eviction: victim.invalidate() + drop.  The
                     * sharer container is verified before the count so a
                     * bail is still mutation-free. */
                    PyObject *tracked =
                        PyObject_GetAttr(victim, s_tracked_sharers);
                    if (tracked == NULL) {
                        Py_DECREF(victim_addr_obj);
                        Py_XDECREF(victim_state);
                        goto done;
                    }
                    if (!PyAnySet_Check(tracked)) {
                        Py_DECREF(tracked);
                        Py_DECREF(victim_addr_obj);
                        Py_XDECREF(victim_state);
                        result = sstep_bail(self, operation);
                        goto done;
                    }
                    if (count_stat(self->sequencer, n_evictions_silent) < 0 ||
                        PyObject_SetAttr(victim, s_state, ST_INVALID) < 0 ||
                        PySet_Clear(tracked) < 0) {
                        Py_DECREF(tracked);
                        Py_DECREF(victim_addr_obj);
                        Py_XDECREF(victim_state);
                        goto done;
                    }
                    Py_DECREF(tracked);
                    if (PyDict_DelItem(self->blocks, victim_addr_obj) < 0)
                        PyErr_Clear(); /* pop(address, None) semantics */
                }
            }
            Py_DECREF(victim_addr_obj);
        }
        Py_XDECREF(victim_state);
    }
    /* Miss bookkeeping + issue. */
    if (bump_attr(self->sequencer, s_misses, ll_one) < 0 ||
        bump_attr(self->ctr_misses, s__count, ll_one) < 0)
        goto done;
    {
        /* The pure path reads operation.is_write a second time here. */
        int write_kind = attr_truth(operation, s_is_write);
        if (write_kind < 0)
            goto done;
        PyObject *kind;
        PyObject *token;
        if (write_kind) {
            kind = MT_GETM;
            int error = 0;
            long long tokens = attr_ll(self->sequencer, s__store_tokens,
                                       &error);
            if (error)
                goto done;
            PyObject *tokens_obj = PyLong_FromLongLong(tokens + 1);
            if (tokens_obj == NULL)
                goto done;
            int rc = PyObject_SetAttr(self->sequencer, s__store_tokens,
                                      tokens_obj);
            Py_DECREF(tokens_obj);
            if (rc < 0)
                goto done;
            token = PyLong_FromLongLong(self->node_id * 1000000 + tokens + 1);
            if (token == NULL)
                goto done;
        }
        else {
            kind = MT_GETS;
            token = Py_NewRef(ll_zero);
        }
        PyObject *txn = sstep_issue_request(self, addr_obj, kind, token,
                                            now_obj, block, state);
        Py_DECREF(token);
        if (txn == NULL)
            goto done;
        /* Completion is at least one network event away; attaching the
         * operation after the send cannot race the callback. */
        int rc = PyObject_SetAttr(txn, s_context, operation);
        Py_DECREF(txn);
        if (rc < 0)
            goto done;
    }
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(state);
    Py_XDECREF(block);
    Py_XDECREF(now_obj);
    Py_DECREF(addr_obj);
    return result;
}

/* _complete_miss: the transaction completion callback. */
static PyObject *
SequencerStep_complete(SequencerStepObject *self, PyObject *transaction)
{
    long long now = core_scheduler_now(self->scheduler);
    PyObject *address = PyObject_GetAttr(transaction, s_address);
    if (address == NULL)
        return NULL;
    PyObject *now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL) {
        Py_DECREF(address);
        return NULL;
    }
    PyObject *result = NULL;
    PyObject *latency = NULL;
    PyObject *context = NULL;
    PyObject *block = PyDict_GetItemWithError(self->blocks, address);
    if (block == NULL && PyErr_Occurred())
        goto done;
    if (block != NULL &&
        PyObject_SetAttr(block, s_last_access_time, now_obj) < 0)
        goto done;
    /* transaction.latency or 0 */
    {
        PyObject *completion_time =
            PyObject_GetAttr(transaction, s_completion_time);
        if (completion_time == NULL)
            goto done;
        if (completion_time == Py_None) {
            Py_DECREF(completion_time);
            latency = Py_NewRef(ll_zero);
        }
        else {
            PyObject *issue_time =
                PyObject_GetAttr(transaction, s_issue_time);
            if (issue_time == NULL) {
                Py_DECREF(completion_time);
                goto done;
            }
            latency = PyNumber_Subtract(completion_time, issue_time);
            Py_DECREF(completion_time);
            Py_DECREF(issue_time);
            if (latency == NULL)
                goto done;
            int truth = PyObject_IsTrue(latency);
            if (truth < 0)
                goto done;
            if (!truth)
                Py_SETREF(latency, Py_NewRef(ll_zero));
        }
    }
    context = PyObject_GetAttr(transaction, s_context);
    if (context == NULL)
        goto done;
    if (sstep_account(self, context, latency, 1, now_obj) < 0)
        goto done;
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(context);
    Py_XDECREF(latency);
    Py_DECREF(now_obj);
    Py_DECREF(address);
    return result;
}

static PyMethodDef SequencerStep_methods[] = {
    {"complete", (PyCFunction)SequencerStep_complete, METH_O,
     "Transaction completion callback (mirrors Sequencer._complete_miss)."},
    {NULL}};

static PyMemberDef SequencerStep_members[] = {
    {"send_mode", T_INT, offsetof(SequencerStepObject, send_mode), READONLY,
     "0: delegated sends, 1: snooping broadcast, 2: directory unicast, "
     "3: BASH adaptive send"},
    {"node_id", T_LONGLONG, offsetof(SequencerStepObject, node_id), READONLY,
     NULL},
    {"source_mode", T_INT, offsetof(SequencerStepObject, source_mode),
     READONLY,
     "0: bound workload calls, 1: stationary traffic, 2: locking"},
    {NULL}};

static PyTypeObject SequencerStep_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.SequencerStep",
    .tp_basicsize = sizeof(SequencerStepObject),
    .tp_dealloc = (destructor)SequencerStep_dealloc,
    .tp_vectorcall_offset = offsetof(SequencerStepObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled Sequencer perform/fetch-next delivery object.",
    .tp_traverse = (traverseproc)SequencerStep_traverse,
    .tp_clear = (inquiry)SequencerStep_clear,
    .tp_methods = SequencerStep_methods,
    .tp_members = SequencerStep_members,
    .tp_init = (initproc)SequencerStep_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------- module glue */

int
issue_add_types(PyObject *module)
{
    if (PyType_Ready(&MemServe_Type) < 0 ||
        PyType_Ready(&DirHome_Type) < 0 ||
        PyType_Ready(&ZipfTable_Type) < 0 ||
        PyType_Ready(&SequencerStep_Type) < 0)
        return -1;

#define INTERN(var, text)                                                      \
    do {                                                                       \
        var = PyUnicode_InternFromString(text);                                \
        if (var == NULL)                                                       \
            return -1;                                                         \
    } while (0)

    INTERN(s_address, "address");
    INTERN(s_is_write, "is_write");
    INTERN(s_think_cycles, "think_cycles");
    INTERN(s_instructions, "instructions");
    INTERN(s_state, "state");
    INTERN(s_last_access_time, "last_access_time");
    INTERN(s_data_token, "data_token");
    INTERN(s_tracked_sharers, "tracked_sharers");
    INTERN(s_kind, "kind");
    INTERN(s_requester, "requester");
    INTERN(s_issue_time, "issue_time");
    INTERN(s_store_token, "store_token");
    INTERN(s_expects_data, "expects_data");
    INTERN(s_was_broadcast, "was_broadcast");
    INTERN(s_completion_callback, "completion_callback");
    INTERN(s_transaction_id, "transaction_id");
    INTERN(s_marker_seen, "marker_seen");
    INTERN(s_effective_order_seq, "effective_order_seq");
    INTERN(s_data_received, "data_received");
    INTERN(s_received_token, "received_token");
    INTERN(s_completed, "completed");
    INTERN(s_completion_time, "completion_time");
    INTERN(s_deferred, "deferred");
    INTERN(s_invalidate_seqs, "invalidate_seqs");
    INTERN(s_ownership_passed, "ownership_passed");
    INTERN(s_retries_observed, "retries_observed");
    INTERN(s_nacked, "nacked");
    INTERN(s_reissued_as_broadcast, "reissued_as_broadcast");
    INTERN(s_context, "context");
    INTERN(s_msg_type, "msg_type");
    INTERN(s_src, "src");
    INTERN(s_size_bytes, "size_bytes");
    INTERN(s_dest, "dest");
    INTERN(s_dest_unit, "dest_unit");
    INTERN(s_recipients, "recipients");
    INTERN(s_is_broadcast, "is_broadcast");
    INTERN(s_is_retry, "is_retry");
    INTERN(s_retry_count, "retry_count");
    INTERN(s_original_type, "original_type");
    INTERN(s_order_seq, "order_seq");
    INTERN(s_msg_id, "msg_id");
    INTERN(s_hits, "hits");
    INTERN(s_misses, "misses");
    INTERN(s_operations_completed, "operations_completed");
    INTERN(s__store_tokens, "_store_tokens");
    INTERN(s__count, "_count");
    INTERN(s_complete, "complete");
    INTERN(s__dram_latency, "_dram_latency");
    INTERN(n_writebacks, "writebacks");
    INTERN(n_evictions_writeback, "evictions.writeback");
    INTERN(n_evictions_silent, "evictions.silent");
    INTERN(n_broadcast_requests, "broadcast_requests");
    INTERN(n_unicast_requests, "unicast_requests");
    INTERN(n_broadcast_decisions, "broadcast_decisions");
    INTERN(n_unicast_decisions, "unicast_decisions");
    INTERN(s__state, "_state");
    INTERN(s__value, "_value");
    INTERN(s__broadcasts, "_broadcasts");
    INTERN(s__unicasts, "_unicasts");
    INTERN(s_lfsr, "lfsr");
    INTERN(s_policy_counter, "policy_counter");
    INTERN(s__tap_shifts, "_tap_shifts");
    INTERN(s__mask, "_mask");
    INTERN(s__width, "_width");
    INTERN(s__bits, "_bits");
    INTERN(n_data_responses, "data_responses");
    INTERN(n_memory_responses, "memory_responses");
    INTERN(n_forwards, "forwards");
    INTERN(s__cache_response_latency, "_cache_response_latency");
    INTERN(s_owner, "owner");
    INTERN(s_sharers, "sharers");
    INTERN(s_label, "label");
    INTERN(s_random, "random");
    INTERN(s_getrandbits, "getrandbits");
    INTERN(s_svc_read, "svc-read");
    INTERN(s_svc_write, "svc-write");
    INTERN(s_lock_acquire, "lock-acquire");
#undef INTERN
    op_names[OP_ADDRESS] = s_address;
    op_names[OP_IS_WRITE] = s_is_write;
    op_names[OP_THINK_CYCLES] = s_think_cycles;
    op_names[OP_INSTRUCTIONS] = s_instructions;
    op_names[OP_LABEL] = s_label;
    ll_zero = PyLong_FromLong(0);
    ll_one = PyLong_FromLong(1);
    issue_empty_tuple = PyTuple_New(0);
    if (ll_zero == NULL || ll_one == NULL || issue_empty_tuple == NULL)
        return -1;

    if (PyModule_AddObjectRef(module, "MemServe",
                              (PyObject *)&MemServe_Type) < 0 ||
        PyModule_AddObjectRef(module, "DirHome",
                              (PyObject *)&DirHome_Type) < 0 ||
        PyModule_AddObjectRef(module, "ZipfTable",
                              (PyObject *)&ZipfTable_Type) < 0 ||
        PyModule_AddObjectRef(module, "SequencerStep",
                              (PyObject *)&SequencerStep_Type) < 0)
        return -1;
    return 0;
}
