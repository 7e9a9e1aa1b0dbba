/* Compiled coherence fast paths: the per-message protocol handlers behind
 * the repro._core backend seam.
 *
 * Contract: bit-identical observable behaviour with the pure-Python
 * reference handlers in repro/protocols/{snooping,bash,directory}.  The
 * pure classes remain the executable specification; each compiled delivery
 * object implements only the *common case* of one handler fully in C and
 * delegates to the stored Python bound method — before any C-side mutation
 * — whenever it meets anything unusual (live transactions that defer,
 * owners that must send data, insufficient BASH requests, unexpected
 * message kinds, customised containers).  Because delegation happens with
 * the whole message and zero prior side effects, the Python handler redoes
 * its read-only checks and takes over exactly where the pure path would
 * have been, so traces stay identical by construction.
 *
 * The delivery objects never schedule: every message send, retry, or nack
 * goes through the delegated Python method (or the MemServe entry), which
 * keeps sequence numbers, event labels and ordering byte-for-byte the same
 * as the pure backend.  The one scheduling object here is BashSample, the
 * BASH sampling event, which re-arms itself exactly as the pure
 * _sample_utilization does.
 *
 * Like the compiled scheduler, the delivery objects prebind containers
 * that every system reset clears *in place* (the transaction dict, the
 * block store's raw dict, the directory's entry dict, the node's home
 * memo) plus stable bound methods, and hold no statistics handles — cold
 * paths count through controller.count(), exactly like the pure handlers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include "_core.h"

/* Protocol singletons injected via _init_protocol().  MessageType and
 * MOSIState members are compared by identity throughout the pure code
 * (`is` comparisons, __hash__ = object.__hash__), so raw pointer equality
 * is the faithful mirror. */
static PyObject *MT_GETS = NULL;
static PyObject *MT_GETM = NULL;
static PyObject *ST_MODIFIED = NULL;
static PyObject *ST_OWNED = NULL;
static PyObject *ST_SHARED = NULL;
static PyObject *ST_INVALID = NULL;
static long long MEMORY_OWNER_ID = -1;

/* Interned attribute / counter names (module lifetime). */
static PyObject *s_requester;
static PyObject *s_address;
static PyObject *s_transaction_id;
static PyObject *s_is_retry;
static PyObject *s_order_seq;
static PyObject *s_recipients;
static PyObject *s_original_type;
static PyObject *s_completed;
static PyObject *s_retries_observed;
static PyObject *s_marker_seen;
static PyObject *s_effective_order_seq;
static PyObject *s_kind;
static PyObject *s_expects_data;
static PyObject *s_data_received;
static PyObject *s_state;
static PyObject *s_tracked_sharers;
static PyObject *s_owner;
static PyObject *s_sharers;
static PyObject *s_awaiting_writeback;
static PyObject *s_count;
static PyObject *s_stale_own_requests;
static PyObject *s_invalidations;
static PyObject *s_stale_markers;
static PyObject *s_data_token;
static PyObject *s_store_token;
static PyObject *s_received_token;
static PyObject *s_invalidate_seqs;
static PyObject *s_deferred;
static PyObject *s_dropped_data;
static PyObject *s_load_then_invalidate;
static PyObject *s_completion_callback;
static PyObject *s_completion_time;
static PyObject *s_issue_time;
static PyObject *s_now;
static PyObject *ll_one;

/* ------------------------------------------------------------------ helpers */

static int
protocol_injected(void)
{
    if (MT_GETS == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "protocol members not injected; call _init_protocol() "
                        "before constructing compiled delivery objects");
        return 0;
    }
    return 1;
}

/* Truth value of an attribute; -1 with error set, else 0/1. */
static int
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
static long long
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
static int
call_discard1(PyObject *callable, PyObject *arg)
{
    PyObject *result = PyObject_CallOneArg(callable, arg);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
call_discard2(PyObject *callable, PyObject *a, PyObject *b)
{
    PyObject *argv[2] = {a, b};
    PyObject *result = PyObject_Vectorcall(callable, argv, 2, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* controller.count(name) — the same per-event statistics path the pure
 * handlers use on their cold branches. */
static int
count_stat(PyObject *controller, PyObject *name)
{
    PyObject *result = PyObject_CallMethodOneArg(controller, s_count, name);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Is every member of `members` (skipping the id `skip`) in `recipients`?
 * Mirrors needed-set .issubset(recipients) with the needed set built by
 * discarding `skip`.  Returns 1/0, or -1 with error set. */
static int
members_covered(PyObject *members, PyObject *recipients, long long skip)
{
    PyObject *iter = PyObject_GetIter(members);
    if (iter == NULL)
        return -1;
    int result = 1;
    PyObject *item;
    while ((item = PyIter_Next(iter)) != NULL) {
        long long value = PyLong_AsLongLong(item);
        if (value == -1 && PyErr_Occurred()) {
            Py_DECREF(item);
            result = -1;
            break;
        }
        if (value != skip) {
            int contained = PySet_Contains(recipients, item);
            if (contained < 0) {
                Py_DECREF(item);
                result = -1;
                break;
            }
            if (!contained) {
                Py_DECREF(item);
                result = 0;
                break;
            }
        }
        Py_DECREF(item);
    }
    Py_DECREF(iter);
    if (result == 1 && PyErr_Occurred())
        return -1;
    return result;
}

/* transaction.record_marker(message.order_seq): marker_seen = True,
 * effective_order_seq = order_seq. */
static int
record_marker(PyObject *transaction, PyObject *message)
{
    if (PyObject_SetAttr(transaction, s_marker_seen, Py_True) < 0)
        return -1;
    PyObject *seq = PyObject_GetAttr(message, s_order_seq);
    if (seq == NULL)
        return -1;
    int rc = PyObject_SetAttr(transaction, s_effective_order_seq, seq);
    Py_DECREF(seq);
    return rc;
}

/* message.request_kind for non-forwarded messages: original_type when set
 * (BASH retries carry it), else the entry's own message type.  Returns a
 * borrowed reference (either a stored singleton or `fallback`). */
static PyObject *
request_kind(PyObject *message, PyObject *fallback, int *error)
{
    PyObject *original = PyObject_GetAttr(message, s_original_type);
    if (original == NULL) {
        *error = 1;
        return NULL;
    }
    if (original == Py_None) {
        Py_DECREF(original);
        return fallback;
    }
    /* MessageType members are singletons kept alive by the enum class; the
     * borrowed pointer stays valid for the duration of the call. */
    Py_DECREF(original);
    return original;
}

/* --------------------------------------------------------------- DataDeliver
 *
 * Compiled unordered-network delivery entry for DATA responses, plus the
 * completion fast path the ordered entries reuse (upgrade-at-marker via
 * SnoopDeliver's `completer`, marker-completion via DirDeliver's).  The
 * common case -- a live transaction receiving its data -- installs the
 * block, runs the completion bookkeeping and fires the issuer's
 * completion callback (the sequencer: necessarily Python).  Any unusual
 * shape (non-set sharer tracking, odd deferred/invalidate containers,
 * unexpected kinds) falls back to the bound Python handler; every
 * mutation performed before such a fallback is an idempotent prefix of
 * what the Python handler redoes. */

typedef struct DataDeliver {
    PyObject_HEAD
    int directory;              /* 1: Directory DATA entry; 0: Snooping/BASH */
    PyObject *controller;       /* cache controller (count() calls) */
    PyObject *transactions;     /* controller.transactions (dict) */
    PyObject *blocks;           /* controller.blocks._blocks (dict) */
    PyObject *blocks_lookup;    /* bound CacheBlockStore.lookup */
    PyObject *scheduler;        /* scheduler (reads .now at completion) */
    PyObject *fallback;         /* bound _handle_data */
    PyObject *service_deferred; /* bound _service_deferred */
    PyObject *try_complete;     /* bound _try_complete (directory), or NULL */
    PyObject *miss_record;      /* bound _miss_latency_mean.record */
    PyObject *system_record;    /* bound _system_miss_latency.record */
    PyObject *arena_release;    /* bound arena.release_transaction, or NULL */
    PyObject *message_release;  /* bound arena.release_message, or NULL */
} DataDeliverObject;

/* transaction.deferred pending?  1/0; -1 odd container; -2 error. */
static int
deferred_pending(PyObject *transaction)
{
    PyObject *deferred = PyObject_GetAttr(transaction, s_deferred);
    if (deferred == NULL)
        return -2;
    int result;
    if (PyTuple_Check(deferred))
        result = PyTuple_GET_SIZE(deferred) != 0;
    else if (PyList_Check(deferred))
        result = PyList_GET_SIZE(deferred) != 0;
    else
        result = -1;
    Py_DECREF(deferred);
    return result;
}

/* transaction.invalidated_after():  1/0; -1 odd container; -2 error. */
static int
txn_invalidated_after(PyObject *transaction)
{
    PyObject *seqs = PyObject_GetAttr(transaction, s_invalidate_seqs);
    if (seqs == NULL)
        return -2;
    if (!PyTuple_Check(seqs) && !PyList_Check(seqs)) {
        Py_DECREF(seqs);
        return -1;
    }
    PyObject *eff = PyObject_GetAttr(transaction, s_effective_order_seq);
    if (eff == NULL) {
        Py_DECREF(seqs);
        return -2;
    }
    int result = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seqs);
    if (eff == Py_None)
        result = n != 0;
    else {
        PyObject **items = PySequence_Fast_ITEMS(seqs);
        for (Py_ssize_t i = 0; i < n; i++) {
            int gt = PyObject_RichCompareBool(items[i], eff, Py_GT);
            if (gt < 0) {
                result = -2;
                break;
            }
            if (gt) {
                result = 1;
                break;
            }
        }
    }
    Py_DECREF(eff);
    Py_DECREF(seqs);
    return result;
}

/* The block record for `address`: raw-dict probe, with the bound lookup
 * (which creates absent records) as the fallback.  New reference. */
static PyObject *
data_block_for(DataDeliverObject *self, PyObject *address)
{
    PyObject *block = PyDict_GetItemWithError(self->blocks, address);
    if (block != NULL) {
        Py_INCREF(block);
        return block;
    }
    if (PyErr_Occurred())
        return NULL;
    return PyObject_CallOneArg(self->blocks_lookup, address);
}

/* _complete(transaction): completion bookkeeping in C; the issuer's
 * completion callback and the arena release stay Python calls. */
static int
complete_transaction(DataDeliverObject *self, PyObject *transaction,
                     PyObject *address)
{
    int completed = attr_truth(transaction, s_completed);
    if (completed < 0)
        return -1;
    if (completed)
        return 0;
    if (PyObject_SetAttr(transaction, s_completed, Py_True) < 0)
        return -1;
    PyObject *now = PyObject_GetAttr(self->scheduler, s_now);
    if (now == NULL)
        return -1;
    int rc = PyObject_SetAttr(transaction, s_completion_time, now);
    long long now_ll = PyLong_AsLongLong(now);
    Py_DECREF(now);
    if (rc < 0 || (now_ll == -1 && PyErr_Occurred()))
        return -1;
    if (PyDict_DelItem(self->transactions, address) < 0)
        PyErr_Clear(); /* pop(address, None) semantics */
    int error = 0;
    long long issued = attr_ll(transaction, s_issue_time, &error);
    if (error)
        return -1;
    PyObject *latency = PyLong_FromLongLong(now_ll - issued);
    if (latency == NULL)
        return -1;
    if (call_discard1(self->miss_record, latency) < 0 ||
        call_discard1(self->system_record, latency) < 0) {
        Py_DECREF(latency);
        return -1;
    }
    Py_DECREF(latency);
    PyObject *callback = PyObject_GetAttr(transaction, s_completion_callback);
    if (callback == NULL)
        return -1;
    if (callback != Py_None && call_discard1(callback, transaction) < 0) {
        Py_DECREF(callback);
        return -1;
    }
    Py_DECREF(callback);
    if (self->arena_release != NULL &&
        call_discard1(self->arena_release, transaction) < 0)
        return -1;
    return 0;
}

/* become_owner(store_token) + deferred service (the shared GETM install).
 * 0 done; 1 = unusual shape, nothing mutated, caller should take the
 * Python path; -1 error. */
static int
data_install_owner(DataDeliverObject *self, PyObject *transaction,
                   PyObject *block)
{
    PyObject *tracked = PyObject_GetAttr(block, s_tracked_sharers);
    if (tracked == NULL)
        return -1;
    if (!PySet_Check(tracked)) {
        Py_DECREF(tracked);
        return 1;
    }
    int pending = deferred_pending(transaction);
    if (pending < 0) {
        Py_DECREF(tracked);
        return pending == -1 ? 1 : -1;
    }
    PyObject *store = PyObject_GetAttr(transaction, s_store_token);
    if (store == NULL) {
        Py_DECREF(tracked);
        return -1;
    }
    int rc = 0;
    if (PyObject_SetAttr(block, s_state, ST_MODIFIED) < 0 ||
        PyObject_SetAttr(block, s_data_token, store) < 0 ||
        PySet_Clear(tracked) < 0)
        rc = -1;
    Py_DECREF(store);
    Py_DECREF(tracked);
    if (rc < 0)
        return -1;
    if (pending &&
        call_discard2(self->service_deferred, transaction, block) < 0)
        return -1;
    return 0;
}

/* _finish_getm: install ownership, serve deferred requests, complete. */
static int
data_finish_getm(DataDeliverObject *self, PyObject *transaction,
                 PyObject *block, PyObject *address)
{
    int rc = data_install_owner(self, transaction, block);
    if (rc != 0)
        return rc;
    return complete_transaction(self, transaction, address);
}

/* _finish_gets: install the shared copy -- or drop one a later-ordered
 * GETM already invalidated -- and complete.  0/1/-1 as above. */
static int
data_finish_gets(DataDeliverObject *self, PyObject *transaction,
                 PyObject *block, PyObject *address)
{
    int invalidated = txn_invalidated_after(transaction);
    if (invalidated < 0)
        return invalidated == -1 ? 1 : -1;
    PyObject *tracked = NULL;
    if (invalidated) {
        tracked = PyObject_GetAttr(block, s_tracked_sharers);
        if (tracked == NULL)
            return -1;
        if (!PySet_Check(tracked)) {
            Py_DECREF(tracked);
            return 1;
        }
    }
    PyObject *received = PyObject_GetAttr(transaction, s_received_token);
    if (received == NULL) {
        Py_XDECREF(tracked);
        return -1;
    }
    int rc = PyObject_SetAttr(block, s_data_token, received);
    Py_DECREF(received);
    if (rc < 0) {
        Py_XDECREF(tracked);
        return -1;
    }
    if (invalidated) {
        /* block.invalidate(); blocks.drop(address); count(...) */
        rc = (PyObject_SetAttr(block, s_state, ST_INVALID) < 0 ||
              PySet_Clear(tracked) < 0)
                 ? -1
                 : 0;
        Py_DECREF(tracked);
        if (rc < 0)
            return -1;
        if (PyDict_DelItem(self->blocks, address) < 0)
            PyErr_Clear();
        if (count_stat(self->controller, s_load_then_invalidate) < 0)
            return -1;
    }
    else if (PyObject_SetAttr(block, s_state, ST_SHARED) < 0)
        return -1;
    return complete_transaction(self, transaction, address);
}

/* Directory _try_complete: the wait-for-marker/data early-outs, the
 * upgrade install, and both completion paths.  0 done or early-out;
 * 1 = odd shape, nothing mutated, caller should call the bound Python
 * _try_complete; -1 error. */
static int
data_try_complete(DataDeliverObject *self, PyObject *transaction)
{
    int marker = attr_truth(transaction, s_marker_seen);
    if (marker < 0)
        return -1;
    if (!marker)
        return 0;
    int received = attr_truth(transaction, s_data_received);
    if (received < 0)
        return -1;
    int expects = attr_truth(transaction, s_expects_data);
    if (expects < 0)
        return -1;
    if (expects && !received)
        return 0;
    PyObject *address = PyObject_GetAttr(transaction, s_address);
    if (address == NULL)
        return -1;
    PyObject *block = data_block_for(self, address);
    if (block == NULL) {
        Py_DECREF(address);
        return -1;
    }
    PyObject *kind = PyObject_GetAttr(transaction, s_kind);
    int rc;
    if (kind == NULL)
        rc = -1;
    else if (kind == MT_GETM)
        rc = received ? complete_transaction(self, transaction, address)
                      : data_finish_getm(self, transaction, block, address);
    else if (kind == MT_GETS)
        rc = data_finish_gets(self, transaction, block, address);
    else
        rc = 1;
    Py_XDECREF(kind);
    Py_DECREF(block);
    Py_DECREF(address);
    return rc;
}

/* The DATA delivery body (message release handled by the caller). */
static int
data_deliver(DataDeliverObject *self, PyObject *message)
{
    PyObject *address = PyObject_GetAttr(message, s_address);
    if (address == NULL)
        return -1;
    PyObject *transaction =
        PyDict_GetItemWithError(self->transactions, address);
    if (transaction == NULL) {
        Py_DECREF(address);
        if (PyErr_Occurred())
            return -1;
        return count_stat(self->controller, s_dropped_data);
    }
    Py_INCREF(transaction);
    int stale = attr_truth(transaction, s_completed);
    if (stale == 0) {
        PyObject *t_id = PyObject_GetAttr(transaction, s_transaction_id);
        if (t_id == NULL)
            stale = -1;
        else {
            PyObject *m_id = PyObject_GetAttr(message, s_transaction_id);
            if (m_id == NULL)
                stale = -1;
            else {
                int same = PyObject_RichCompareBool(t_id, m_id, Py_EQ);
                Py_DECREF(m_id);
                stale = same < 0 ? -1 : !same;
            }
            Py_XDECREF(t_id);
        }
    }
    if (stale != 0) {
        Py_DECREF(transaction);
        Py_DECREF(address);
        return stale < 0 ? -1
                         : count_stat(self->controller, s_dropped_data);
    }
    PyObject *kind = PyObject_GetAttr(transaction, s_kind);
    if (kind == NULL)
        goto fail;
    int is_getm = kind == MT_GETM;
    int is_gets = kind == MT_GETS;
    Py_DECREF(kind);
    if (!self->directory && !is_getm && !is_gets) {
        /* unexpected kind: the Python handler is authoritative (raises) */
        Py_DECREF(transaction);
        Py_DECREF(address);
        return call_discard1(self->fallback, message);
    }
    PyObject *token = PyObject_GetAttr(message, s_data_token);
    if (token == NULL)
        goto fail;
    int rc = PyObject_SetAttr(transaction, s_data_received, Py_True) < 0 ||
             PyObject_SetAttr(transaction, s_received_token, token) < 0;
    Py_DECREF(token);
    if (rc)
        goto fail;
    if (self->directory) {
        if (is_getm) {
            /* install ownership now; completion waits for the marker */
            PyObject *block = data_block_for(self, address);
            if (block == NULL)
                goto fail;
            int installed = data_install_owner(self, transaction, block);
            Py_DECREF(block);
            if (installed < 0)
                goto fail;
            if (installed == 1) {
                Py_DECREF(transaction);
                Py_DECREF(address);
                return call_discard1(self->fallback, message);
            }
        }
        int done = data_try_complete(self, transaction);
        if (done < 0)
            goto fail;
        if (done == 1 &&
            call_discard1(self->try_complete, transaction) < 0)
            goto fail;
        Py_DECREF(transaction);
        Py_DECREF(address);
        return 0;
    }
    PyObject *block = data_block_for(self, address);
    if (block == NULL)
        goto fail;
    int done = is_getm
                   ? data_finish_getm(self, transaction, block, address)
                   : data_finish_gets(self, transaction, block, address);
    Py_DECREF(block);
    if (done < 0)
        goto fail;
    Py_DECREF(transaction);
    Py_DECREF(address);
    if (done == 1)
        return call_discard1(self->fallback, message);
    return 0;
fail:
    Py_DECREF(transaction);
    Py_DECREF(address);
    return -1;
}

static int
DataDeliver_init(DataDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *transactions, *blocks, *blocks_lookup, *scheduler;
    PyObject *fallback, *service_deferred, *miss_record, *system_record;
    PyObject *try_complete = Py_None, *arena_release = Py_None;
    PyObject *message_release = Py_None;
    int directory;
    static char *kwlist[] = {
        "directory",     "controller",    "transactions",
        "blocks",        "blocks_lookup", "scheduler",
        "fallback",      "service_deferred", "miss_record",
        "system_record", "try_complete",  "arena_release",
        "message_release", NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iOOOOOOOOO|OOO", kwlist, &directory, &controller,
            &transactions, &blocks, &blocks_lookup, &scheduler, &fallback,
            &service_deferred, &miss_record, &system_record, &try_complete,
            &arena_release, &message_release))
        return -1;
    if (!protocol_injected())
        return -1;
    if (!PyDict_Check(transactions) || !PyDict_Check(blocks)) {
        PyErr_SetString(PyExc_TypeError,
                        "transactions and blocks must be dicts");
        return -1;
    }
    if (directory && try_complete == Py_None) {
        PyErr_SetString(PyExc_TypeError,
                        "directory entries require try_complete");
        return -1;
    }
    self->directory = directory;
    Py_INCREF(controller);
    Py_XSETREF(self->controller, controller);
    Py_INCREF(transactions);
    Py_XSETREF(self->transactions, transactions);
    Py_INCREF(blocks);
    Py_XSETREF(self->blocks, blocks);
    Py_INCREF(blocks_lookup);
    Py_XSETREF(self->blocks_lookup, blocks_lookup);
    Py_INCREF(scheduler);
    Py_XSETREF(self->scheduler, scheduler);
    Py_INCREF(fallback);
    Py_XSETREF(self->fallback, fallback);
    Py_INCREF(service_deferred);
    Py_XSETREF(self->service_deferred, service_deferred);
    Py_INCREF(miss_record);
    Py_XSETREF(self->miss_record, miss_record);
    Py_INCREF(system_record);
    Py_XSETREF(self->system_record, system_record);
#define STORE_OPT(field, value)                                                \
    do {                                                                       \
        PyObject *boxed = (value) == Py_None ? NULL : (value);                 \
        Py_XINCREF(boxed);                                                     \
        Py_XSETREF(self->field, boxed);                                        \
    } while (0)
    STORE_OPT(try_complete, try_complete);
    STORE_OPT(arena_release, arena_release);
    STORE_OPT(message_release, message_release);
#undef STORE_OPT
    return 0;
}

static int
DataDeliver_traverse(DataDeliverObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->controller);
    Py_VISIT(self->transactions);
    Py_VISIT(self->blocks);
    Py_VISIT(self->blocks_lookup);
    Py_VISIT(self->scheduler);
    Py_VISIT(self->fallback);
    Py_VISIT(self->service_deferred);
    Py_VISIT(self->try_complete);
    Py_VISIT(self->miss_record);
    Py_VISIT(self->system_record);
    Py_VISIT(self->arena_release);
    Py_VISIT(self->message_release);
    return 0;
}

static int
DataDeliver_clear(DataDeliverObject *self)
{
    Py_CLEAR(self->controller);
    Py_CLEAR(self->transactions);
    Py_CLEAR(self->blocks);
    Py_CLEAR(self->blocks_lookup);
    Py_CLEAR(self->scheduler);
    Py_CLEAR(self->fallback);
    Py_CLEAR(self->service_deferred);
    Py_CLEAR(self->try_complete);
    Py_CLEAR(self->miss_record);
    Py_CLEAR(self->system_record);
    Py_CLEAR(self->arena_release);
    Py_CLEAR(self->message_release);
    return 0;
}

static void
DataDeliver_dealloc(DataDeliverObject *self)
{
    PyObject_GC_UnTrack(self);
    DataDeliver_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
DataDeliver_call(DataDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "DataDeliver takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "DataDeliver", 1, 1, &message))
        return NULL;
    if (data_deliver(self, message) < 0)
        return NULL;
    /* The unordered network's deliver-and-release wrapper, folded in: a
     * point-to-point message has exactly one delivery. */
    if (self->message_release != NULL &&
        call_discard1(self->message_release, message) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
DataDeliver_get_releases(DataDeliverObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->message_release != NULL);
}

static PyGetSetDef DataDeliver_getset[] = {
    {"releases_message", (getter)DataDeliver_get_releases, NULL,
     "True when this entry returns delivered messages to the arena pool.",
     NULL},
    {NULL}};

static PyTypeObject DataDeliver_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.DataDeliver",
    .tp_basicsize = sizeof(DataDeliverObject),
    .tp_dealloc = (destructor)DataDeliver_dealloc,
    .tp_call = (ternaryfunc)DataDeliver_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled unordered DATA delivery entry.",
    .tp_traverse = (traverseproc)DataDeliver_traverse,
    .tp_clear = (inquiry)DataDeliver_clear,
    .tp_getset = DataDeliver_getset,
    .tp_init = (initproc)DataDeliver_init,
    .tp_new = PyType_GenericNew,
};

/* --------------------------------------------------------------- SnoopDeliver
 *
 * One compiled ordered-network delivery entry for GETS or GETM on a
 * Snooping or BASH node: the fused snoop-and-home path.  Replaces the
 * pure `snoop_and_home` closure from SnoopingCacheController.
 *
 *   requester's own delivery -> stale check, retry bookkeeping, marker
 *     recording and the upgrade-at-marker completion, in C (completion
 *     itself delegates to _finish_getm);
 *   other nodes              -> the 15-of-16 "no block, no transaction"
 *     early-out and the stable SHARED-invalidation entirely in C; live
 *     transactions and data-sending owners delegate to
 *     _handle_other_request;
 *   home node                -> the home memo and the directory's
 *     grant_exclusive/add_sharer bookkeeping (plus the BASH sufficiency
 *     check) in C; anything that sends data, retries, nacks or holds
 *     requests delegates to the memory controller's _ordered_request.
 */

typedef struct {
    PyObject_HEAD
    PyObject *msg_kind;       /* MessageType.GETS or .GETM */
    long long node_id;
    int bash;                 /* owner-side sufficiency check enabled */
    int mem_mode;             /* 0: no memory side; 1: delegate to Python
                                 handler when home; 2: C home-serve */
    int mem_bash;             /* home-serve follows BASH semantics */
    int home_inline;          /* home test as C arithmetic (stock config) */
    long long block_bytes;    /* config.cache_block_bytes (home_inline) */
    long long num_procs;      /* config.num_processors (home_inline) */
    PyObject *controller;     /* cache controller (count() calls) */
    PyObject *transactions;   /* controller.transactions (dict) */
    PyObject *blocks;         /* controller.blocks._blocks (dict) */
    PyObject *blocks_lookup;  /* bound CacheBlockStore.lookup */
    PyObject *handle_other;   /* bound _handle_other_request */
    PyObject *finish_getm;    /* bound _finish_getm */
    PyObject *own_sufficient; /* bound _own_request_sufficient */
    PyObject *home_filter;    /* node's home memo (dict), or NULL */
    PyObject *is_home_for;    /* bound memoised home test, or NULL */
    PyObject *mem_handler;    /* bound _ordered_request, or NULL */
    PyObject *mem_controller; /* memory controller (count() calls), or NULL */
    PyObject *dir_entries;    /* directory._entries (dict), or NULL */
    PyObject *dir_lookup;     /* bound DirectoryStore.lookup, or NULL */
    PyObject *completer;      /* DataDeliver for upgrade-at-marker, or NULL */
    PyObject *mem_serve;      /* MemServe C data serve (_issue.c), or NULL */
} SnoopDeliverObject;

static int
SnoopDeliver_init(SnoopDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *kind, *controller, *transactions, *blocks, *blocks_lookup;
    PyObject *handle_other, *finish_getm, *own_sufficient;
    PyObject *home_filter = Py_None, *is_home_for = Py_None;
    PyObject *mem_handler = Py_None, *mem_controller = Py_None;
    PyObject *dir_entries = Py_None, *dir_lookup = Py_None;
    PyObject *completer = Py_None, *mem_serve = Py_None;
    long long node_id, block_bytes = 0, num_procs = 0;
    int bash, mem_mode, mem_bash = 0, home_inline = 0;
    static char *kwlist[] = {
        "kind",          "node_id",      "bash",        "controller",
        "transactions",  "blocks",       "blocks_lookup",
        "handle_other",  "finish_getm",  "own_sufficient",
        "mem_mode",      "mem_bash",     "home_filter", "is_home_for",
        "mem_handler",   "mem_controller", "dir_entries", "dir_lookup",
        "home_inline",   "block_bytes",  "num_procs",  "completer",
        "mem_serve",     NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OLiOOOOOOOi|iOOOOOOiLLOO", kwlist, &kind, &node_id,
            &bash, &controller, &transactions, &blocks, &blocks_lookup,
            &handle_other, &finish_getm, &own_sufficient, &mem_mode,
            &mem_bash, &home_filter, &is_home_for, &mem_handler,
            &mem_controller, &dir_entries, &dir_lookup, &home_inline,
            &block_bytes, &num_procs, &completer, &mem_serve))
        return -1;
    if (completer != Py_None &&
        !PyObject_TypeCheck(completer, &DataDeliver_Type)) {
        PyErr_SetString(PyExc_TypeError, "completer must be a DataDeliver");
        return -1;
    }
    if (mem_serve != Py_None && !issue_is_memserve(mem_serve)) {
        PyErr_SetString(PyExc_TypeError, "mem_serve must be a MemServe");
        return -1;
    }
    if (home_inline && (block_bytes <= 0 || num_procs <= 0)) {
        PyErr_SetString(PyExc_ValueError,
                        "home_inline requires positive block_bytes and "
                        "num_procs");
        return -1;
    }
    if (!protocol_injected())
        return -1;
    if (kind != MT_GETS && kind != MT_GETM) {
        PyErr_SetString(PyExc_ValueError,
                        "SnoopDeliver handles GETS or GETM entries only");
        return -1;
    }
    if (!PyDict_Check(transactions) || !PyDict_Check(blocks)) {
        PyErr_SetString(PyExc_TypeError,
                        "transactions and blocks must be dicts");
        return -1;
    }
    if (mem_mode < 0 || mem_mode > 2) {
        PyErr_SetString(PyExc_ValueError, "mem_mode must be 0, 1 or 2");
        return -1;
    }
    if (mem_mode != 0 &&
        (!PyDict_Check(home_filter) || is_home_for == Py_None ||
         mem_handler == Py_None)) {
        PyErr_SetString(PyExc_TypeError,
                        "mem_mode > 0 requires home_filter (dict), "
                        "is_home_for and mem_handler");
        return -1;
    }
    if (mem_mode == 2 &&
        (!PyDict_Check(dir_entries) || dir_lookup == Py_None ||
         mem_controller == Py_None)) {
        PyErr_SetString(PyExc_TypeError,
                        "mem_mode 2 requires dir_entries (dict), dir_lookup "
                        "and mem_controller");
        return -1;
    }
    self->node_id = node_id;
    self->bash = bash;
    self->mem_mode = mem_mode;
    self->mem_bash = mem_bash;
    self->home_inline = home_inline;
    self->block_bytes = block_bytes;
    self->num_procs = num_procs;
    Py_INCREF(kind);
    Py_XSETREF(self->msg_kind, kind);
    Py_INCREF(controller);
    Py_XSETREF(self->controller, controller);
    Py_INCREF(transactions);
    Py_XSETREF(self->transactions, transactions);
    Py_INCREF(blocks);
    Py_XSETREF(self->blocks, blocks);
    Py_INCREF(blocks_lookup);
    Py_XSETREF(self->blocks_lookup, blocks_lookup);
    Py_INCREF(handle_other);
    Py_XSETREF(self->handle_other, handle_other);
    Py_INCREF(finish_getm);
    Py_XSETREF(self->finish_getm, finish_getm);
    Py_INCREF(own_sufficient);
    Py_XSETREF(self->own_sufficient, own_sufficient);
#define STORE_OPT(field, value)                                                \
    do {                                                                       \
        PyObject *boxed = (value) == Py_None ? NULL : (value);                 \
        Py_XINCREF(boxed);                                                     \
        Py_XSETREF(self->field, boxed);                                        \
    } while (0)
    STORE_OPT(home_filter, home_filter);
    STORE_OPT(is_home_for, is_home_for);
    STORE_OPT(mem_handler, mem_handler);
    STORE_OPT(mem_controller, mem_controller);
    STORE_OPT(dir_entries, dir_entries);
    STORE_OPT(dir_lookup, dir_lookup);
    STORE_OPT(completer, completer);
    STORE_OPT(mem_serve, mem_serve);
#undef STORE_OPT
    return 0;
}

static int
SnoopDeliver_traverse(SnoopDeliverObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->msg_kind);
    Py_VISIT(self->controller);
    Py_VISIT(self->transactions);
    Py_VISIT(self->blocks);
    Py_VISIT(self->blocks_lookup);
    Py_VISIT(self->handle_other);
    Py_VISIT(self->finish_getm);
    Py_VISIT(self->own_sufficient);
    Py_VISIT(self->home_filter);
    Py_VISIT(self->is_home_for);
    Py_VISIT(self->mem_handler);
    Py_VISIT(self->mem_controller);
    Py_VISIT(self->dir_entries);
    Py_VISIT(self->dir_lookup);
    Py_VISIT(self->completer);
    Py_VISIT(self->mem_serve);
    return 0;
}

static int
SnoopDeliver_clear(SnoopDeliverObject *self)
{
    Py_CLEAR(self->msg_kind);
    Py_CLEAR(self->controller);
    Py_CLEAR(self->transactions);
    Py_CLEAR(self->blocks);
    Py_CLEAR(self->blocks_lookup);
    Py_CLEAR(self->handle_other);
    Py_CLEAR(self->finish_getm);
    Py_CLEAR(self->own_sufficient);
    Py_CLEAR(self->home_filter);
    Py_CLEAR(self->is_home_for);
    Py_CLEAR(self->mem_handler);
    Py_CLEAR(self->mem_controller);
    Py_CLEAR(self->dir_entries);
    Py_CLEAR(self->dir_lookup);
    Py_CLEAR(self->completer);
    Py_CLEAR(self->mem_serve);
    return 0;
}

static void
SnoopDeliver_dealloc(SnoopDeliverObject *self)
{
    PyObject_GC_UnTrack(self);
    SnoopDeliver_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* BASH owner-side sufficiency for our own GETM-from-owner: every tracked
 * sharer except ourselves must have received the request. */
static int
own_sufficient_bash(SnoopDeliverObject *self, PyObject *transaction,
                    PyObject *block, PyObject *message)
{
    PyObject *tracked = PyObject_GetAttr(block, s_tracked_sharers);
    if (tracked == NULL)
        return -1;
    PyObject *recipients = PyObject_GetAttr(message, s_recipients);
    if (recipients == NULL) {
        Py_DECREF(tracked);
        return -1;
    }
    int result;
    if (PyAnySet_Check(tracked) && PyAnySet_Check(recipients)) {
        result = members_covered(tracked, recipients, self->node_id);
    }
    else {
        /* unusual containers: the Python check is authoritative */
        PyObject *argv[3] = {transaction, block, message};
        PyObject *res = PyObject_Vectorcall(self->own_sufficient, argv, 3, NULL);
        result = res == NULL ? -1 : PyObject_IsTrue(res);
        Py_XDECREF(res);
    }
    Py_DECREF(tracked);
    Py_DECREF(recipients);
    return result;
}

/* _handle_own_request: stale check, retry bookkeeping, marker recording,
 * and the upgrade-at-marker completion. */
static int
snoop_own(SnoopDeliverObject *self, PyObject *message, PyObject *address)
{
    PyObject *transaction = PyDict_GetItemWithError(self->transactions, address);
    if (transaction == NULL) {
        if (PyErr_Occurred())
            return -1;
        return count_stat(self->controller, s_stale_own_requests);
    }
    Py_INCREF(transaction);
    PyObject *t_id = PyObject_GetAttr(transaction, s_transaction_id);
    if (t_id == NULL)
        goto fail;
    PyObject *m_id = PyObject_GetAttr(message, s_transaction_id);
    if (m_id == NULL) {
        Py_DECREF(t_id);
        goto fail;
    }
    int same = PyObject_RichCompareBool(t_id, m_id, Py_EQ);
    Py_DECREF(t_id);
    Py_DECREF(m_id);
    if (same < 0)
        goto fail;
    if (!same) {
        Py_DECREF(transaction);
        return count_stat(self->controller, s_stale_own_requests);
    }
    int retry = attr_truth(message, s_is_retry);
    if (retry < 0)
        goto fail;
    if (retry) {
        PyObject *seen = PyObject_GetAttr(transaction, s_retries_observed);
        if (seen == NULL)
            goto fail;
        PyObject *bumped = PyNumber_Add(seen, ll_one);
        Py_DECREF(seen);
        if (bumped == NULL)
            goto fail;
        int rc = PyObject_SetAttr(transaction, s_retries_observed, bumped);
        Py_DECREF(bumped);
        if (rc < 0)
            goto fail;
        if (count_stat(self->controller, s_retries_observed) < 0)
            goto fail;
    }
    if (record_marker(transaction, message) < 0)
        goto fail;
    PyObject *block = PyDict_GetItemWithError(self->blocks, address);
    if (block == NULL) {
        if (PyErr_Occurred())
            goto fail;
        block = PyObject_CallOneArg(self->blocks_lookup, address);
        if (block == NULL)
            goto fail;
    }
    else
        Py_INCREF(block);
    /* _try_complete_at_marker: a GETM issued from M/O completes at its
     * marker without waiting for data (when the request was sufficient). */
    PyObject *kind = PyObject_GetAttr(transaction, s_kind);
    if (kind == NULL) {
        Py_DECREF(block);
        goto fail;
    }
    int upgrade = (kind == MT_GETM);
    Py_DECREF(kind);
    if (upgrade) {
        PyObject *state = PyObject_GetAttr(block, s_state);
        if (state == NULL) {
            Py_DECREF(block);
            goto fail;
        }
        int is_owner = (state == ST_MODIFIED || state == ST_OWNED);
        Py_DECREF(state);
        if (is_owner) {
            int sufficient =
                self->bash
                    ? own_sufficient_bash(self, transaction, block, message)
                    : 1;
            if (sufficient < 0) {
                Py_DECREF(block);
                goto fail;
            }
            if (sufficient) {
                if (PyObject_SetAttr(transaction, s_expects_data, Py_False) <
                    0) {
                    Py_DECREF(block);
                    goto fail;
                }
                int finished = 1; /* 1 = take the Python path */
                if (self->completer != NULL) {
                    finished = data_finish_getm(
                        (DataDeliverObject *)self->completer, transaction,
                        block, address);
                    if (finished < 0) {
                        Py_DECREF(block);
                        goto fail;
                    }
                }
                if (finished == 1 &&
                    call_discard2(self->finish_getm, transaction, block) < 0) {
                    Py_DECREF(block);
                    goto fail;
                }
            }
        }
    }
    Py_DECREF(block);
    Py_DECREF(transaction);
    return 0;
fail:
    Py_DECREF(transaction);
    return -1;
}

/* Another node's GETS/GETM: the early-out and the stable SHARED
 * invalidation in C; everything else delegates to _handle_other_request. */
static int
snoop_other(SnoopDeliverObject *self, PyObject *message, PyObject *address)
{
    PyObject *transaction = PyDict_GetItemWithError(self->transactions, address);
    if (transaction == NULL && PyErr_Occurred())
        return -1;
    int live = 0;
    if (transaction != NULL) {
        int completed = attr_truth(transaction, s_completed);
        if (completed < 0)
            return -1;
        live = !completed;
    }
    PyObject *block = PyDict_GetItemWithError(self->blocks, address);
    if (block == NULL) {
        if (PyErr_Occurred())
            return -1;
        if (!live)
            return 0; /* nothing held, nothing pending: the common case */
        return call_discard1(self->handle_other, message);
    }
    if (live) /* may defer / note invalidates: Python decides */
        return call_discard1(self->handle_other, message);
    /* Stable block (_serve_stable): owners send data and unexpected kinds
     * raise — both through Python; the S-invalidation runs here. */
    int error = 0;
    PyObject *kind = request_kind(message, self->msg_kind, &error);
    if (error)
        return -1;
    PyObject *state = PyObject_GetAttr(block, s_state);
    if (state == NULL)
        return -1;
    int known_kind = (kind == MT_GETS || kind == MT_GETM);
    int known_state = (state == ST_MODIFIED || state == ST_OWNED ||
                       state == ST_SHARED || state == ST_INVALID);
    int rc = 0;
    if (!known_kind || !known_state ||
        state == ST_MODIFIED || state == ST_OWNED) {
        rc = call_discard1(self->handle_other, message);
    }
    else if (kind == MT_GETM && state == ST_SHARED) {
        /* block.invalidate(); blocks.drop(address); count("invalidations") */
        PyObject *tracked = PyObject_GetAttr(block, s_tracked_sharers);
        if (tracked == NULL)
            rc = -1;
        else if (!PySet_Check(tracked)) {
            Py_DECREF(tracked);
            rc = call_discard1(self->handle_other, message);
        }
        else {
            Py_INCREF(block); /* keep alive across the dict removal */
            if (PyObject_SetAttr(block, s_state, ST_INVALID) < 0 ||
                PySet_Clear(tracked) < 0)
                rc = -1;
            else {
                if (PyDict_DelItem(self->blocks, address) < 0)
                    PyErr_Clear(); /* pop(address, None) semantics */
                rc = count_stat(self->controller, s_invalidations);
            }
            Py_DECREF(block);
            Py_DECREF(tracked);
        }
    }
    /* GETS at a non-owner and GETM at Invalid: no reaction. */
    Py_DECREF(state);
    return rc;
}

/* The home side of an ordered GETS/GETM (OrderedHomeMemoryController
 * ._ordered_request), with the home filter already satisfied. */
static int
home_serve(SnoopDeliverObject *self, PyObject *message, PyObject *address,
           long long requester)
{
    if (self->mem_bash) {
        /* a returning BASH retry frees a retry-buffer slot: replay the
         * whole request in Python so the decrement happens exactly once */
        int retry = attr_truth(message, s_is_retry);
        if (retry < 0)
            return -1;
        if (retry)
            return call_discard1(self->mem_handler, message);
    }
    PyObject *entry = PyDict_GetItemWithError(self->dir_entries, address);
    if (entry == NULL) {
        if (PyErr_Occurred())
            return -1;
        entry = PyObject_CallOneArg(self->dir_lookup, address);
        if (entry == NULL)
            return -1;
    }
    else
        Py_INCREF(entry);
    int rc = -1;
    PyObject *sharers = NULL;
    int awaiting = attr_truth(entry, s_awaiting_writeback);
    if (awaiting < 0)
        goto done;
    if (awaiting) { /* held across a writeback: Python queues + counts */
        rc = call_discard1(self->mem_handler, message);
        goto done;
    }
    int error = 0;
    PyObject *kind = request_kind(message, self->msg_kind, &error);
    if (error)
        goto done;
    if (kind != MT_GETS && kind != MT_GETM) {
        rc = call_discard1(self->mem_handler, message); /* raises in Python */
        goto done;
    }
    int is_getm = (kind == MT_GETM);
    long long owner = attr_ll(entry, s_owner, &error);
    if (error)
        goto done;
    sharers = PyObject_GetAttr(entry, s_sharers);
    if (sharers == NULL)
        goto done;
    if (!PySet_Check(sharers)) {
        rc = call_discard1(self->mem_handler, message);
        goto done;
    }
    if (self->mem_bash) {
        /* DirectoryEntry.is_sufficient: every needed node (sharers plus a
         * cache owner, minus the requester) must be a recipient. */
        PyObject *recipients = PyObject_GetAttr(message, s_recipients);
        if (recipients == NULL)
            goto done;
        int sufficient;
        if (!PyAnySet_Check(recipients)) {
            Py_DECREF(recipients);
            rc = call_discard1(self->mem_handler, message);
            goto done;
        }
        if (is_getm) {
            sufficient = members_covered(sharers, recipients, requester);
            if (sufficient == 1 && owner != MEMORY_OWNER_ID &&
                owner != requester) {
                PyObject *owner_obj = PyLong_FromLongLong(owner);
                if (owner_obj == NULL)
                    sufficient = -1;
                else {
                    sufficient = PySet_Contains(recipients, owner_obj);
                    Py_DECREF(owner_obj);
                }
            }
        }
        else if (owner == MEMORY_OWNER_ID || owner == requester)
            sufficient = 1;
        else {
            PyObject *owner_obj = PyLong_FromLongLong(owner);
            if (owner_obj == NULL)
                sufficient = -1;
            else {
                sufficient = PySet_Contains(recipients, owner_obj);
                Py_DECREF(owner_obj);
            }
        }
        Py_DECREF(recipients);
        if (sufficient < 0)
            goto done;
        if (!sufficient) { /* counted, then retried or nacked, in Python */
            rc = call_discard1(self->mem_handler, message);
            goto done;
        }
    }
    /* Data-sending branches delegate — unless the compiled MemServe entry
     * (_issue.c) can build and schedule the DATA reply itself, in which
     * case the directory bookkeeping below still runs in C. */
    if (self->mem_bash ? (is_getm ? owner == MEMORY_OWNER_ID
                                  : (owner == MEMORY_OWNER_ID ||
                                     owner == requester))
                       : owner == MEMORY_OWNER_ID) {
        int served = -1;
        if (self->mem_serve != NULL)
            served = issue_mem_serve(self->mem_serve, message, entry,
                                     is_getm);
        if (served < 0 && PyErr_Occurred())
            goto done;
        if (served != 0) {
            rc = call_discard1(self->mem_handler, message);
            goto done;
        }
        /* served == 0: DATA reply scheduled; fall through to the grant /
         * add_sharer bookkeeping the pure _serve_request does next. */
    }
    if (is_getm) {
        /* entry.grant_exclusive(requester) */
        PyObject *req_obj = PyObject_GetAttr(message, s_requester);
        if (req_obj == NULL)
            goto done;
        int set_rc = PyObject_SetAttr(entry, s_owner, req_obj);
        Py_DECREF(req_obj);
        if (set_rc < 0 || PySet_Clear(sharers) < 0)
            goto done;
    }
    else if (requester != owner) {
        /* entry.add_sharer(requester) */
        PyObject *req_obj = PyObject_GetAttr(message, s_requester);
        if (req_obj == NULL)
            goto done;
        int add_rc = PySet_Add(sharers, req_obj);
        Py_DECREF(req_obj);
        if (add_rc < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(sharers);
    Py_DECREF(entry);
    return rc;
}

/* The node's cached home test (the same memo dict the pure fused closure
 * fills), then the memory side. */
static int
snoop_home(SnoopDeliverObject *self, PyObject *message, PyObject *address,
           long long requester)
{
    int is_home = -2; /* unresolved */
    if (self->home_inline) {
        /* home_node(address) == node_id with the stock block-interleaved
         * mapping; the mapping is only compiled in for non-negative
         * machine-size addresses (others take the memoised Python test). */
        long long addr = PyLong_AsLongLong(address);
        if (addr == -1 && PyErr_Occurred())
            PyErr_Clear();
        else if (addr >= 0)
            is_home = (addr / self->block_bytes) % self->num_procs ==
                      self->node_id;
    }
    if (is_home == -2) {
        PyObject *home = PyDict_GetItemWithError(self->home_filter, address);
        if (home == NULL) {
            if (PyErr_Occurred())
                return -1;
            home = PyObject_CallOneArg(self->is_home_for, address);
            if (home == NULL)
                return -1;
            if (PyDict_SetItem(self->home_filter, address, home) < 0) {
                Py_DECREF(home);
                return -1;
            }
        }
        else
            Py_INCREF(home);
        is_home = PyObject_IsTrue(home);
        Py_DECREF(home);
        if (is_home < 0)
            return -1;
    }
    if (!is_home)
        return 0;
    if (self->mem_mode == 1)
        return call_discard1(self->mem_handler, message);
    return home_serve(self, message, address, requester);
}

static PyObject *
SnoopDeliver_call(SnoopDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "SnoopDeliver takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "SnoopDeliver", 1, 1, &message))
        return NULL;
    PyObject *address = PyObject_GetAttr(message, s_address);
    if (address == NULL)
        return NULL;
    int error = 0;
    long long requester = attr_ll(message, s_requester, &error);
    if (error) {
        Py_DECREF(address);
        return NULL;
    }
    int rc;
    if (requester == self->node_id)
        rc = snoop_own(self, message, address);
    else
        rc = snoop_other(self, message, address);
    if (rc == 0 && self->mem_mode != 0)
        rc = snoop_home(self, message, address, requester);
    Py_DECREF(address);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject SnoopDeliver_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.SnoopDeliver",
    .tp_basicsize = sizeof(SnoopDeliverObject),
    .tp_dealloc = (destructor)SnoopDeliver_dealloc,
    .tp_call = (ternaryfunc)SnoopDeliver_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled snoop-and-home delivery entry for one GETS/GETM type.",
    .tp_traverse = (traverseproc)SnoopDeliver_traverse,
    .tp_clear = (inquiry)SnoopDeliver_clear,
    .tp_init = (initproc)SnoopDeliver_init,
    .tp_new = PyType_GenericNew,
};

/* ---------------------------------------------------------------- DirDeliver
 *
 * Compiled ordered entry for the Directory protocol's MARKER and
 * FWD_GETS/FWD_GETM types.  The Directory home consumes nothing ordered,
 * so there is no memory side.  The own-request path (every MARKER, and a
 * forward returning to its requester) runs the stale check, the marker
 * recording and the wait-for-data early-out in C; completion and other
 * nodes' forwards delegate. */

typedef struct {
    PyObject_HEAD
    int forward; /* 1: FWD_GETS/FWD_GETM entry; 0: MARKER entry */
    long long node_id;
    PyObject *controller;   /* cache controller (count() calls) */
    PyObject *transactions; /* controller.transactions (dict) */
    PyObject *handle_other; /* bound _handle_other_forward, or NULL */
    PyObject *try_complete; /* bound _try_complete */
    PyObject *completer;    /* DataDeliver for marker completion, or NULL */
} DirDeliverObject;

static int
DirDeliver_init(DirDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *transactions, *try_complete;
    PyObject *handle_other = Py_None, *completer = Py_None;
    long long node_id;
    int forward;
    static char *kwlist[] = {"forward",      "node_id",     "controller",
                             "transactions", "try_complete", "handle_other",
                             "completer",    NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iLOOO|OO", kwlist, &forward,
                                     &node_id, &controller, &transactions,
                                     &try_complete, &handle_other, &completer))
        return -1;
    if (completer != Py_None &&
        !PyObject_TypeCheck(completer, &DataDeliver_Type)) {
        PyErr_SetString(PyExc_TypeError, "completer must be a DataDeliver");
        return -1;
    }
    if (!PyDict_Check(transactions)) {
        PyErr_SetString(PyExc_TypeError, "transactions must be a dict");
        return -1;
    }
    if (forward && handle_other == Py_None) {
        PyErr_SetString(PyExc_TypeError,
                        "forward entries require handle_other");
        return -1;
    }
    self->forward = forward;
    self->node_id = node_id;
    Py_INCREF(controller);
    Py_XSETREF(self->controller, controller);
    Py_INCREF(transactions);
    Py_XSETREF(self->transactions, transactions);
    Py_INCREF(try_complete);
    Py_XSETREF(self->try_complete, try_complete);
    PyObject *other = handle_other == Py_None ? NULL : handle_other;
    Py_XINCREF(other);
    Py_XSETREF(self->handle_other, other);
    PyObject *comp = completer == Py_None ? NULL : completer;
    Py_XINCREF(comp);
    Py_XSETREF(self->completer, comp);
    return 0;
}

static int
DirDeliver_traverse(DirDeliverObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->controller);
    Py_VISIT(self->transactions);
    Py_VISIT(self->handle_other);
    Py_VISIT(self->try_complete);
    Py_VISIT(self->completer);
    return 0;
}

static int
DirDeliver_clear(DirDeliverObject *self)
{
    Py_CLEAR(self->controller);
    Py_CLEAR(self->transactions);
    Py_CLEAR(self->handle_other);
    Py_CLEAR(self->try_complete);
    Py_CLEAR(self->completer);
    return 0;
}

static void
DirDeliver_dealloc(DirDeliverObject *self)
{
    PyObject_GC_UnTrack(self);
    DirDeliver_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
DirDeliver_call(DirDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "DirDeliver takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "DirDeliver", 1, 1, &message))
        return NULL;
    if (self->forward) {
        int error = 0;
        long long requester = attr_ll(message, s_requester, &error);
        if (error)
            return NULL;
        if (requester != self->node_id) {
            if (call_discard1(self->handle_other, message) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
    }
    /* _handle_marker (and the own-forward half of _handle_forward) */
    PyObject *address = PyObject_GetAttr(message, s_address);
    if (address == NULL)
        return NULL;
    PyObject *transaction = PyDict_GetItemWithError(self->transactions, address);
    Py_DECREF(address);
    if (transaction == NULL) {
        if (PyErr_Occurred())
            return NULL;
        if (count_stat(self->controller, s_stale_markers) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    Py_INCREF(transaction);
    PyObject *t_id = PyObject_GetAttr(transaction, s_transaction_id);
    if (t_id == NULL)
        goto fail;
    PyObject *m_id = PyObject_GetAttr(message, s_transaction_id);
    if (m_id == NULL) {
        Py_DECREF(t_id);
        goto fail;
    }
    int same = PyObject_RichCompareBool(t_id, m_id, Py_EQ);
    Py_DECREF(t_id);
    Py_DECREF(m_id);
    if (same < 0)
        goto fail;
    if (!same) {
        Py_DECREF(transaction);
        if (count_stat(self->controller, s_stale_markers) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (record_marker(transaction, message) < 0)
        goto fail;
    /* _try_complete's wait-for-data early-out is the common marker-first
     * case; actual completion (block install, deferred service) delegates. */
    int expects = attr_truth(transaction, s_expects_data);
    if (expects < 0)
        goto fail;
    if (expects) {
        int received = attr_truth(transaction, s_data_received);
        if (received < 0)
            goto fail;
        if (!received) {
            Py_DECREF(transaction);
            Py_RETURN_NONE;
        }
    }
    int done = 1; /* 1 = take the Python path */
    if (self->completer != NULL) {
        done = data_try_complete((DataDeliverObject *)self->completer,
                                 transaction);
        if (done < 0)
            goto fail;
    }
    if (done == 1 && call_discard1(self->try_complete, transaction) < 0)
        goto fail;
    Py_DECREF(transaction);
    Py_RETURN_NONE;
fail:
    Py_DECREF(transaction);
    return NULL;
}

static PyTypeObject DirDeliver_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.DirDeliver",
    .tp_basicsize = sizeof(DirDeliverObject),
    .tp_dealloc = (destructor)DirDeliver_dealloc,
    .tp_call = (ternaryfunc)DirDeliver_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled Directory MARKER/forward delivery entry.",
    .tp_traverse = (traverseproc)DirDeliver_traverse,
    .tp_clear = (inquiry)DirDeliver_clear,
    .tp_init = (initproc)DirDeliver_init,
    .tp_new = PyType_GenericNew,
};

/* --------------------------------------------------------------- BashSample
 *
 * BASH's periodic sampling event (BashCacheController._sample_utilization
 * fused with BandwidthAdaptiveMechanism.observe_window), scheduled as the
 * sampling callback in place of the bound Python method.  One object per
 * node, rebuilt by every _schedule_sampling (construction and each
 * reset_state), so it always binds the mechanism's current policy counter
 * and history.  Per fire it reads both endpoint links' busy totals (the
 * busy_time_up_to rule), derives the busier direction's utilisation, moves
 * the saturating policy counter, appends one AdaptiveSample, records the
 * three running means in the pure order and reschedules itself under the
 * same label.  The window scalars live on the controller, read and
 * written through its attributes.
 *
 * The links, the policy counter, the running means and the samples are
 * instances of exact, unpatched __slots__ classes (the Python selection
 * checks that), so their fields are read and written straight through the
 * slot offsets the classes' member descriptors publish -- the same cells
 * the descriptors themselves access.  Anything unusual (a field holding a
 * non-int or non-float, values past exact double range, `now` before a
 * link's current busy period, whose NetworkError the Python method raises)
 * delegates to the bound Python _sample_utilization before any mutation;
 * that method reschedules itself, so the node continues on the pure
 * path. */

/* Integers a double holds exactly: int/int true division and int*float
 * products equal their C double forms only inside this range. */
#define EXACT_DOUBLE_INT (1LL << 53)

#define SLOT_CELL(obj, offset) ((PyObject **)((char *)(obj) + (offset)))

enum { LINK_BUSY_UNTIL, LINK_BUSY_TOTAL, LINK_PERIOD_START, LINK_PERIOD_PREFIX,
       LINK_SLOTS };
enum { MEAN_COUNT, MEAN_TOTAL, MEAN_MEAN, MEAN_M2, MEAN_MINIMUM, MEAN_MAXIMUM,
       MEAN_SLOTS };
enum { SAMPLE_TIME, SAMPLE_UTILIZATION, SAMPLE_COUNTER, SAMPLE_POLICY,
       SAMPLE_PROBABILITY, SAMPLE_SLOTS };

/* Slot names, interned at module init (a type's attribute cache keeps
 * the looked-up name alive, so lookups must not mint fresh strings). */
static const char *link_slot_text[LINK_SLOTS] = {
    "_busy_until", "_busy_total", "_period_start", "_period_prefix"};
static const char *mean_slot_text[MEAN_SLOTS] = {
    "_count", "_total", "_mean", "_m2", "_minimum", "_maximum"};
static const char *sample_slot_text[SAMPLE_SLOTS] = {
    "time", "utilization", "utilization_counter", "policy_counter",
    "unicast_probability"};
static PyObject *link_slot_names[LINK_SLOTS];
static PyObject *mean_slot_names[MEAN_SLOTS];
static PyObject *sample_slot_names[SAMPLE_SLOTS];
static PyObject *s__value;
static PyObject *s__maximum;
static PyObject *s_append;

typedef struct {
    PyObject_HEAD
    long long busy_delta;      /* q - p: added per busy cycle */
    long long idle_delta;      /* p: subtracted per idle cycle */
    PyObject *controller;      /* BashCacheController (window attrs) */
    PyObject *scheduler;       /* compiled SchedulerBase */
    PyObject *link_in;         /* the node's two EndpointLinks */
    PyObject *link_out;
    PyObject *pure;            /* bound _sample_utilization (bail target) */
    PyObject *policy;          /* UnsignedSaturatingCounter */
    PyObject *history;         /* mechanism.history: list or deque */
    PyObject *history_append;  /* bound deque.append, NULL for a list */
    PyObject *sample_cls;      /* AdaptiveSample */
    PyObject *means[3];        /* RunningMeans: node and system utilisation,
                                  system unicast probability */
    PyObject *label;
    Py_ssize_t link_slots[LINK_SLOTS];
    Py_ssize_t mean_slots[MEAN_SLOTS];
    Py_ssize_t sample_slots[SAMPLE_SLOTS];
    Py_ssize_t policy_value;   /* UnsignedSaturatingCounter._value */
    Py_ssize_t policy_maximum; /* UnsignedSaturatingCounter._maximum */
} BashSampleObject;

static PyObject *s__window_start;
static PyObject *s__window_busy_in;
static PyObject *s__window_busy_out;
static PyObject *s__sampling_interval;
static PyObject *sample_empty_tuple;

/* The byte offset of the writable object slot `name` of class `cls`, or
 * -1 with TypeError set when `name` is anything else. */
static Py_ssize_t
slot_offset(PyObject *cls, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr(cls, name);
    if (descr == NULL)
        return -1;
    Py_ssize_t offset = -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY))
            offset = member->offset;
    }
    Py_DECREF(descr);
    if (offset < 0)
        PyErr_Format(PyExc_TypeError, "%R has no object slot %R", cls, name);
    return offset;
}

static int
slot_offsets(PyObject *cls, PyObject **names, int count,
             Py_ssize_t *offsets)
{
    for (int i = 0; i < count; i++) {
        offsets[i] = slot_offset(cls, names[i]);
        if (offsets[i] < 0)
            return -1;
    }
    return 0;
}

/* An int slot as long long; 0 when unset, not an exact int or too big. */
static int
slot_ll(PyObject *obj, Py_ssize_t offset, long long *out)
{
    PyObject *value = *SLOT_CELL(obj, offset);
    if (value == NULL || !PyLong_CheckExact(value))
        return 0;
    *out = PyLong_AsLongLong(value);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    return 1;
}

/* A float slot; 0 when unset or not an exact float. */
static int
slot_double(PyObject *obj, Py_ssize_t offset, double *out)
{
    PyObject *value = *SLOT_CELL(obj, offset);
    if (value == NULL || !PyFloat_CheckExact(value))
        return 0;
    *out = PyFloat_AS_DOUBLE(value);
    return 1;
}

/* Store a new reference (stolen; NULL is an error passed through). */
static int
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

static int
BashSample_init(BashSampleObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *scheduler, *link_in, *link_out, *pure, *policy;
    PyObject *history, *sample_cls, *mean_node, *mean_util, *mean_prob;
    PyObject *label;
    long long busy_delta, idle_delta;
    static char *kwlist[] = {
        "controller", "scheduler",  "link_in",    "link_out",  "pure",
        "policy",     "history",    "sample_cls", "mean_node", "mean_util",
        "mean_prob",  "label",      "busy_delta", "idle_delta", NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOOOOOOOOOOOLL", kwlist, &controller, &scheduler,
            &link_in, &link_out, &pure, &policy, &history, &sample_cls,
            &mean_node, &mean_util, &mean_prob, &label, &busy_delta,
            &idle_delta))
        return -1;
    if (!core_scheduler_check(scheduler)) {
        PyErr_SetString(PyExc_TypeError,
                        "BashSample requires a compiled SchedulerBase");
        return -1;
    }
    if (!PyType_Check(sample_cls) ||
        Py_TYPE(link_in) != Py_TYPE(link_out) ||
        Py_TYPE(mean_node) != Py_TYPE(mean_util) ||
        Py_TYPE(mean_node) != Py_TYPE(mean_prob)) {
        PyErr_SetString(PyExc_TypeError,
                        "sample_cls must be a class; the links and the "
                        "running means must share one class each");
        return -1;
    }
    if (busy_delta < 0 || idle_delta < 0 || busy_delta >= EXACT_DOUBLE_INT ||
        idle_delta >= EXACT_DOUBLE_INT) {
        PyErr_SetString(PyExc_ValueError,
                        "counter deltas must be small non-negative ints");
        return -1;
    }
    if (slot_offsets((PyObject *)Py_TYPE(link_in), link_slot_names,
                     LINK_SLOTS, self->link_slots) < 0 ||
        slot_offsets((PyObject *)Py_TYPE(mean_node), mean_slot_names,
                     MEAN_SLOTS, self->mean_slots) < 0 ||
        slot_offsets(sample_cls, sample_slot_names, SAMPLE_SLOTS,
                     self->sample_slots) < 0)
        return -1;
    self->policy_value = slot_offset((PyObject *)Py_TYPE(policy), s__value);
    if (self->policy_value < 0)
        return -1;
    self->policy_maximum =
        slot_offset((PyObject *)Py_TYPE(policy), s__maximum);
    if (self->policy_maximum < 0)
        return -1;
    PyObject *append = NULL;
    if (!PyList_CheckExact(history)) {
        append = PyObject_GetAttr(history, s_append);
        if (append == NULL)
            return -1;
    }
    Py_XSETREF(self->history_append, append);
    self->busy_delta = busy_delta;
    self->idle_delta = idle_delta;
#define STORE_SAMPLE(field, value)                                             \
    do {                                                                       \
        Py_INCREF(value);                                                      \
        Py_XSETREF(self->field, value);                                        \
    } while (0)
    STORE_SAMPLE(controller, controller);
    STORE_SAMPLE(scheduler, scheduler);
    STORE_SAMPLE(link_in, link_in);
    STORE_SAMPLE(link_out, link_out);
    STORE_SAMPLE(pure, pure);
    STORE_SAMPLE(policy, policy);
    STORE_SAMPLE(history, history);
    STORE_SAMPLE(sample_cls, sample_cls);
    STORE_SAMPLE(means[0], mean_node);
    STORE_SAMPLE(means[1], mean_util);
    STORE_SAMPLE(means[2], mean_prob);
    STORE_SAMPLE(label, label);
#undef STORE_SAMPLE
    return 0;
}

static int
BashSample_traverse(BashSampleObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->controller);
    Py_VISIT(self->scheduler);
    Py_VISIT(self->link_in);
    Py_VISIT(self->link_out);
    Py_VISIT(self->pure);
    Py_VISIT(self->policy);
    Py_VISIT(self->history);
    Py_VISIT(self->history_append);
    Py_VISIT(self->sample_cls);
    Py_VISIT(self->means[0]);
    Py_VISIT(self->means[1]);
    Py_VISIT(self->means[2]);
    Py_VISIT(self->label);
    return 0;
}

static int
BashSample_clear(BashSampleObject *self)
{
    Py_CLEAR(self->controller);
    Py_CLEAR(self->scheduler);
    Py_CLEAR(self->link_in);
    Py_CLEAR(self->link_out);
    Py_CLEAR(self->pure);
    Py_CLEAR(self->policy);
    Py_CLEAR(self->history);
    Py_CLEAR(self->history_append);
    Py_CLEAR(self->sample_cls);
    Py_CLEAR(self->means[0]);
    Py_CLEAR(self->means[1]);
    Py_CLEAR(self->means[2]);
    Py_CLEAR(self->label);
    return 0;
}

static void
BashSample_dealloc(BashSampleObject *self)
{
    PyObject_GC_UnTrack(self);
    BashSample_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* EndpointLink.busy_time_up_to(now): 1 answered, 0 delegate. */
static int
link_busy_up_to(BashSampleObject *self, PyObject *link, long long now,
                long long *busy)
{
    const Py_ssize_t *slots = self->link_slots;
    long long busy_until, total, start, prefix;
    if (!slot_ll(link, slots[LINK_BUSY_UNTIL], &busy_until) ||
        !slot_ll(link, slots[LINK_BUSY_TOTAL], &total))
        return 0;
    if (now >= busy_until) {
        *busy = total;
        return 1;
    }
    if (!slot_ll(link, slots[LINK_PERIOD_START], &start) ||
        !slot_ll(link, slots[LINK_PERIOD_PREFIX], &prefix) || now < start)
        return 0;
    *busy = prefix + (now - start);
    return 1;
}

/* A RunningMean's fields. */
typedef struct {
    long long count;
    double total, mean, m2, minimum, maximum;
} MeanFields;

/* Read a RunningMean whose state RunningMean.record can update in C (an
 * int count, float accumulators); 0 for anything else. */
static int
mean_read(BashSampleObject *self, PyObject *mean, MeanFields *fields)
{
    const Py_ssize_t *slots = self->mean_slots;
    return slot_ll(mean, slots[MEAN_COUNT], &fields->count) &&
           fields->count >= 0 && fields->count + 1 < EXACT_DOUBLE_INT &&
           slot_double(mean, slots[MEAN_TOTAL], &fields->total) &&
           slot_double(mean, slots[MEAN_MEAN], &fields->mean) &&
           slot_double(mean, slots[MEAN_M2], &fields->m2) &&
           slot_double(mean, slots[MEAN_MINIMUM], &fields->minimum) &&
           slot_double(mean, slots[MEAN_MAXIMUM], &fields->maximum);
}

/* RunningMean.record(value) (Welford), on a mean mean_read() accepted
 * (read afresh, so one object passed twice records twice).  0 / -1. */
static int
mean_record(BashSampleObject *self, PyObject *mean, double value)
{
    const Py_ssize_t *slots = self->mean_slots;
    MeanFields fields;
    mean_read(self, mean, &fields);
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
        slot_store(mean, slots[MEAN_MINIMUM], PyFloat_FromDouble(value)) < 0)
        return -1;
    if (value > fields.maximum &&
        slot_store(mean, slots[MEAN_MAXIMUM], PyFloat_FromDouble(value)) < 0)
        return -1;
    return 0;
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

/* AdaptiveSample(time, utilization, utilization_counter, policy_counter,
 * unicast_probability): allocated bare, every slot assigned, exactly the
 * fields the stock dataclass __init__ stores. */
static PyObject *
new_sample(BashSampleObject *self, long long now, double utilization,
           long long value, long long policy, double probability)
{
    PyTypeObject *cls = (PyTypeObject *)self->sample_cls;
    PyObject *sample = cls->tp_new(cls, sample_empty_tuple, NULL);
    if (sample == NULL)
        return NULL;
    const Py_ssize_t *slots = self->sample_slots;
    if (slot_store(sample, slots[SAMPLE_TIME], PyLong_FromLongLong(now)) <
            0 ||
        slot_store(sample, slots[SAMPLE_UTILIZATION],
                   PyFloat_FromDouble(utilization)) < 0 ||
        slot_store(sample, slots[SAMPLE_COUNTER], PyLong_FromLongLong(value)) <
            0 ||
        slot_store(sample, slots[SAMPLE_POLICY], PyLong_FromLongLong(policy)) <
            0 ||
        slot_store(sample, slots[SAMPLE_PROBABILITY],
                   PyFloat_FromDouble(probability)) < 0) {
        Py_DECREF(sample);
        return NULL;
    }
    return sample;
}

static PyObject *
sample_bail(BashSampleObject *self)
{
    if (PyErr_Occurred())
        PyErr_Clear();
    return PyObject_CallNoArgs(self->pure);
}

static PyObject *
BashSample_call(BashSampleObject *self, PyObject *args, PyObject *kwds)
{
    if ((kwds != NULL && PyDict_GET_SIZE(kwds) != 0) ||
        PyTuple_GET_SIZE(args) != 0) {
        PyErr_SetString(PyExc_TypeError, "BashSample takes no arguments");
        return NULL;
    }
    long long now = core_scheduler_now(self->scheduler);
    /* Every read and check happens before the first write, so a
     * delegation leaves no trace. */
    int error = 0;
    long long window_start =
        attr_ll(self->controller, s__window_start, &error);
    long long window_in =
        error ? 0 : attr_ll(self->controller, s__window_busy_in, &error);
    long long window_out =
        error ? 0 : attr_ll(self->controller, s__window_busy_out, &error);
    long long interval =
        error ? 0 : attr_ll(self->controller, s__sampling_interval, &error);
    if (error || interval < 0)
        return sample_bail(self);
    long long busy_in_now, busy_out_now, policy, maximum;
    MeanFields unused;
    if (!link_busy_up_to(self, self->link_in, now, &busy_in_now) ||
        !link_busy_up_to(self, self->link_out, now, &busy_out_now) ||
        !slot_ll(self->policy, self->policy_value, &policy) ||
        !slot_ll(self->policy, self->policy_maximum, &maximum) ||
        maximum <= 0 || maximum >= EXACT_DOUBLE_INT || policy < 0 ||
        policy > maximum || !mean_read(self, self->means[0], &unused) ||
        !mean_read(self, self->means[1], &unused) ||
        !mean_read(self, self->means[2], &unused))
        return sample_bail(self);
    long long busy_in = busy_in_now - window_in;
    long long busy_out = busy_out_now - window_out;
    long long span = now - window_start;
    long long bottleneck = busy_in > busy_out ? busy_in : busy_out;
    if (span < 0 || bottleneck < 0 || bottleneck >= EXACT_DOUBLE_INT ||
        span >= EXACT_DOUBLE_INT / (self->busy_delta + self->idle_delta + 1))
        return sample_bail(self);
    double utilization = 0.0;
    if (span > 0) {
        utilization = (double)bottleneck / (double)span;
        if (utilization > 1.0)
            utilization = 1.0;
    }
    /* int(round(x)): Python rounds floats half to even, as rint() does
     * under the default rounding mode. */
    long long busy = (long long)rint(utilization * (double)span);
    long long value =
        busy * self->busy_delta - (span - busy) * self->idle_delta;
    long long moved = policy;
    if (value > 0) {
        if (moved < maximum)
            moved += 1;
    }
    else if (value < 0) {
        if (moved > 0)
            moved -= 1;
    }
    double probability = (double)moved / (double)maximum;
    if (set_ll_attr(self->controller, s__window_busy_in, busy_in_now) < 0 ||
        set_ll_attr(self->controller, s__window_busy_out, busy_out_now) <
            0)
        return NULL;
    if (moved != policy &&
        slot_store(self->policy, self->policy_value,
                   PyLong_FromLongLong(moved)) < 0)
        return NULL;
    PyObject *sample =
        new_sample(self, now, utilization, value, moved, probability);
    if (sample == NULL)
        return NULL;
    int rc = self->history_append == NULL
                 ? PyList_Append(self->history, sample)
                 : call_discard1(self->history_append, sample);
    Py_DECREF(sample);
    if (rc < 0 || mean_record(self, self->means[0], utilization) < 0 ||
        mean_record(self, self->means[1], utilization) < 0 ||
        mean_record(self, self->means[2], probability) < 0 ||
        set_ll_attr(self->controller, s__window_start, now) < 0 ||
        core_push_fast(self->scheduler, now + interval, (PyObject *)self,
                       self->label, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject BashSample_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._core._cext.BashSample",
    .tp_basicsize = sizeof(BashSampleObject),
    .tp_dealloc = (destructor)BashSample_dealloc,
    .tp_call = (ternaryfunc)BashSample_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled BASH sampling event (one per node).",
    .tp_traverse = (traverseproc)BashSample_traverse,
    .tp_clear = (inquiry)BashSample_clear,
    .tp_init = (initproc)BashSample_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------- module glue */

/* _init_protocol(GETS, GETM, MODIFIED, OWNED, SHARED, INVALID,
 * memory_owner): inject the enum singletons the fast paths compare by
 * identity.  Idempotent; called by repro.protocols.dispatch on first use. */
static PyObject *
chandlers_init_protocol(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *gets, *getm, *modified, *owned, *shared, *invalid;
    long long memory_owner;
    if (!PyArg_ParseTuple(args, "OOOOOOL", &gets, &getm, &modified, &owned,
                          &shared, &invalid, &memory_owner))
        return NULL;
    Py_INCREF(gets);
    Py_XSETREF(MT_GETS, gets);
    Py_INCREF(getm);
    Py_XSETREF(MT_GETM, getm);
    Py_INCREF(modified);
    Py_XSETREF(ST_MODIFIED, modified);
    Py_INCREF(owned);
    Py_XSETREF(ST_OWNED, owned);
    Py_INCREF(shared);
    Py_XSETREF(ST_SHARED, shared);
    Py_INCREF(invalid);
    Py_XSETREF(ST_INVALID, invalid);
    MEMORY_OWNER_ID = memory_owner;
    Py_RETURN_NONE;
}

static PyMethodDef chandlers_methods[] = {
    {"_init_protocol", chandlers_init_protocol, METH_VARARGS,
     "Inject the MessageType/MOSIState members the fast paths compare by "
     "identity."},
    {NULL}};

/* Registers DataDeliver, SnoopDeliver, DirDeliver and BashSample.  Ordered PUTM
 * entries have no compiled object: writebacks are rare, so they always run
 * the pure _snoop_putm / home handlers. */
int
chandlers_add_types(PyObject *module)
{
    if (PyType_Ready(&DataDeliver_Type) < 0 ||
        PyType_Ready(&SnoopDeliver_Type) < 0 ||
        PyType_Ready(&DirDeliver_Type) < 0 ||
        PyType_Ready(&BashSample_Type) < 0)
        return -1;

#define INTERN(var, text)                                                      \
    do {                                                                       \
        var = PyUnicode_InternFromString(text);                                \
        if (var == NULL)                                                       \
            return -1;                                                         \
    } while (0)

    INTERN(s_requester, "requester");
    INTERN(s_address, "address");
    INTERN(s_transaction_id, "transaction_id");
    INTERN(s_is_retry, "is_retry");
    INTERN(s_order_seq, "order_seq");
    INTERN(s_recipients, "recipients");
    INTERN(s_original_type, "original_type");
    INTERN(s_completed, "completed");
    INTERN(s_retries_observed, "retries_observed");
    INTERN(s_marker_seen, "marker_seen");
    INTERN(s_effective_order_seq, "effective_order_seq");
    INTERN(s_kind, "kind");
    INTERN(s_expects_data, "expects_data");
    INTERN(s_data_received, "data_received");
    INTERN(s_state, "state");
    INTERN(s_tracked_sharers, "tracked_sharers");
    INTERN(s_owner, "owner");
    INTERN(s_sharers, "sharers");
    INTERN(s_awaiting_writeback, "awaiting_writeback");
    INTERN(s_count, "count");
    INTERN(s_stale_own_requests, "stale_own_requests");
    INTERN(s_invalidations, "invalidations");
    INTERN(s_stale_markers, "stale_markers");
    INTERN(s_data_token, "data_token");
    INTERN(s_store_token, "store_token");
    INTERN(s_received_token, "received_token");
    INTERN(s_invalidate_seqs, "invalidate_seqs");
    INTERN(s_deferred, "deferred");
    INTERN(s_dropped_data, "dropped_data");
    INTERN(s_load_then_invalidate, "load_then_invalidate");
    INTERN(s_completion_callback, "completion_callback");
    INTERN(s_completion_time, "completion_time");
    INTERN(s_issue_time, "issue_time");
    INTERN(s_now, "now");
    INTERN(s__window_start, "_window_start");
    INTERN(s__window_busy_in, "_window_busy_in");
    INTERN(s__window_busy_out, "_window_busy_out");
    INTERN(s__sampling_interval, "_sampling_interval");
    INTERN(s__value, "_value");
    INTERN(s__maximum, "_maximum");
    INTERN(s_append, "append");
    for (int i = 0; i < LINK_SLOTS; i++)
        INTERN(link_slot_names[i], link_slot_text[i]);
    for (int i = 0; i < MEAN_SLOTS; i++)
        INTERN(mean_slot_names[i], mean_slot_text[i]);
    for (int i = 0; i < SAMPLE_SLOTS; i++)
        INTERN(sample_slot_names[i], sample_slot_text[i]);
#undef INTERN
    ll_one = PyLong_FromLong(1);
    sample_empty_tuple = PyTuple_New(0);
    if (ll_one == NULL || sample_empty_tuple == NULL)
        return -1;

    if (PyModule_AddObjectRef(module, "DataDeliver",
                              (PyObject *)&DataDeliver_Type) < 0 ||
        PyModule_AddObjectRef(module, "SnoopDeliver",
                              (PyObject *)&SnoopDeliver_Type) < 0 ||
        PyModule_AddObjectRef(module, "DirDeliver",
                              (PyObject *)&DirDeliver_Type) < 0 ||
        PyModule_AddObjectRef(module, "BashSample",
                              (PyObject *)&BashSample_Type) < 0)
        return -1;
    if (PyModule_AddFunctions(module, chandlers_methods) < 0)
        return -1;
    return 0;
}
