/* Compiled coherence fast paths: the per-message protocol handlers behind
 * the repro._core backend seam.
 *
 * Contract: bit-identical observable behaviour with the pure-Python
 * reference handlers in repro/protocols/{snooping,bash,directory}.  The
 * pure classes remain the executable specification; each compiled delivery
 * object implements the common cases of one handler fully in C and
 * delegates to the stored Python bound method -- before any C-side
 * mutation -- whenever it meets anything unusual (live transactions that
 * defer or note invalidations, BASH retries, unexpected message kinds,
 * customised containers).  Because delegation happens with the whole
 * message and zero prior side effects, the Python handler redoes its
 * read-only checks and takes over exactly where the pure path would have
 * been, so traces stay identical by construction.
 *
 * Sending: the objects push messages only through the pushes the pure
 * handlers make.  An owner's or a home memory's DATA reply goes through
 * issue_send_data (_issue.c): the same message build, data_responses count
 * and schedule_after_fast1 entry -- callback (the controller's
 * _unordered_send), label and message, in the bucket of its time -- as the
 * pure _send_data.
 * Retries, nacks and writebacks stay in the delegated Python methods.
 * BashSample, the BASH sampling event, re-arms itself exactly as the pure
 * _sample_utilization does.
 *
 * Like the compiled scheduler, the delivery objects prebind containers
 * that every system reset clears *in place* (the transaction dict, the
 * block store's raw dict, the directory's entry dict) plus stable bound
 * methods and statistics objects.  Counts go through _core.h's count_stat
 * (the component's own counter cache, so a reset-pruned name is
 * re-resolved by count()) and running means through mean_record_int; a patched Counter, RunningMean or Component.count keeps
 * the Python methods.  Message fields are read through message_get()
 * (_core.h): by slot for the stock Message, by attribute for anything
 * else.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include "_core.h"

/* The protocol singletons every unit shares (_core.h), set by
 * _init_protocol() below. */
PyObject *MT_GETS, *MT_GETM, *MT_PUTM, *MT_DATA, *MT_MARKER;
PyObject *MT_FWD_GETS, *MT_FWD_GETM;
PyObject *ST_MODIFIED, *ST_OWNED, *ST_SHARED, *ST_INVALID;
PyObject *DU_CACHE_U, *DU_MEMORY_U, *EMPTY_RECIPIENTS;
long long MEMORY_OWNER_ID = -1;

/* Interned attribute / counter names (module lifetime). */
static PyObject *s_address;
static PyObject *s_transaction_id;
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
static PyObject *s_stale_own_requests;
static PyObject *s_invalidations;
static PyObject *s_stale_markers;
static PyObject *s_stale_forwards;
static PyObject *s_cache_to_cache;
static PyObject *s_insufficient_observed;
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
static PyObject *empty_args;

/* ------------------------------------------------------------------ helpers */

/* The truth value of a message field; -1 with error set, else 0/1. */
static int
message_truth(PyObject *message, int field)
{
    PyObject *value = message_get(message, field);
    if (value == NULL)
        return -1;
    int result = PyObject_IsTrue(value);
    Py_DECREF(value);
    return result;
}

/* An int message field as long long; sets *error on failure. */
static long long
message_ll(PyObject *message, int field, int *error)
{
    PyObject *value = message_get(message, field);
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
call_discard2(PyObject *callable, PyObject *a, PyObject *b)
{
    PyObject *argv[2] = {a, b};
    PyObject *result = PyObject_Vectorcall(callable, argv, 2, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Is every member of `members` (skipping the ids `skip` and `skip_too`)
 * in `recipients`?  Mirrors needed-set .issubset(recipients) with the
 * needed set built by discarding both ids.  Returns 1/0, or -1 with error
 * set. */
static int
members_covered(PyObject *members, PyObject *recipients, long long skip,
                long long skip_too)
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
        if (value != skip && value != skip_too) {
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
    PyObject *seq = message_get(message, MSG_ORDER_SEQ);
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
    PyObject *original = message_get(message, MSG_ORIGINAL_TYPE);
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

/* CacheBlockStore.lookup(address): the raw-dict probe, and on a miss the
 * Invalid record CacheBlock(address) stores -- built by slot when the
 * stock class is injected and unmodified, else through the bound lookup.
 * New reference. */
static PyObject *
block_lookup(PyObject *blocks, PyObject *lookup, PyObject *address)
{
    PyObject *block = PyDict_GetItemWithError(blocks, address);
    if (block != NULL)
        return Py_NewRef(block);
    if (PyErr_Occurred())
        return NULL;
    PyTypeObject *cls = core_block_layout.cls;
    if (cls == NULL || cls->tp_version_tag != core_block_layout.version)
        return PyObject_CallOneArg(lookup, address);
    block = cls->tp_new(cls, empty_args, NULL);
    if (block == NULL)
        return NULL;
    const Py_ssize_t *slots = core_block_layout.offsets;
    if (slot_store(block, slots[BLOCK_ADDRESS], Py_NewRef(address)) < 0 ||
        slot_store(block, slots[BLOCK_STATE], Py_NewRef(ST_INVALID)) < 0 ||
        slot_store(block, slots[BLOCK_DATA_TOKEN], PyLong_FromLong(0)) < 0 ||
        slot_store(block, slots[BLOCK_TRACKED_SHARERS], PySet_New(NULL)) < 0 ||
        slot_store(block, slots[BLOCK_LAST_ACCESS_TIME], PyLong_FromLong(0)) <
            0 ||
        PyDict_SetItem(blocks, address, block) < 0) {
        Py_DECREF(block);
        return NULL;
    }
    return block;
}

/* The owner's reply to another node's request: the M/O branches of
 * _serve_stable (Snooping/BASH) and _serve_forward (Directory).  The DATA
 * reply goes out through `serve` (issue_send_data: the cache's _send_data
 * plus its push); then a GETS leaves the block OWNED, tracking the
 * requester as a sharer, and a GETM invalidates and drops it; both count
 * cache_to_cache.  1 when the Python handler must run (nothing changed),
 * 0 served, -1 error. */
static int
owner_serve(PyObject *serve, PyObject *controller, PyObject *blocks,
            PyObject *block, PyObject *message, int getm)
{
    PyObject *tracked = PyObject_GetAttr(block, s_tracked_sharers);
    if (tracked == NULL)
        return -1;
    if (!PySet_Check(tracked)) {
        Py_DECREF(tracked);
        return 1;
    }
    Py_INCREF(block); /* keep alive across the dict removal */
    PyObject *address = PyObject_GetAttr(block, s_address);
    PyObject *token =
        address == NULL ? NULL : PyObject_GetAttr(block, s_data_token);
    PyObject *requester =
        token == NULL ? NULL : message_get(message, MSG_REQUESTER);
    PyObject *txn_id =
        requester == NULL ? NULL : message_get(message, MSG_TRANSACTION_ID);
    int rc = txn_id == NULL
                 ? -1
                 : issue_send_data(serve, address, requester, token, txn_id);
    if (rc == 0) {
        if (getm) {
            /* block.invalidate(); blocks.drop(block.address) */
            if (PyObject_SetAttr(block, s_state, ST_INVALID) < 0 ||
                PySet_Clear(tracked) < 0)
                rc = -1;
            else if (PyDict_DelItem(blocks, address) < 0)
                PyErr_Clear(); /* pop(address, None) semantics */
        }
        else if (PyObject_SetAttr(block, s_state, ST_OWNED) < 0 ||
                 PySet_Add(tracked, requester) < 0)
            rc = -1;
        if (rc == 0)
            rc = count_stat(controller, s_cache_to_cache);
    }
    Py_XDECREF(txn_id);
    Py_XDECREF(requester);
    Py_XDECREF(token);
    Py_XDECREF(address);
    Py_DECREF(block);
    Py_DECREF(tracked);
    return rc;
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
    vectorcallfunc vectorcall;
    int directory;              /* 1: Directory DATA entry; 0: Snooping/BASH */
    PyObject *controller;       /* cache controller (count() calls) */
    PyObject *transactions;     /* controller.transactions (dict) */
    PyObject *blocks;           /* controller.blocks._blocks (dict) */
    PyObject *blocks_lookup;    /* bound CacheBlockStore.lookup */
    PyObject *scheduler;        /* scheduler (reads .now at completion) */
    PyObject *fallback;         /* bound _handle_data */
    PyObject *service_deferred; /* bound _service_deferred */
    PyObject *try_complete;     /* bound _try_complete (directory), or NULL */
    PyObject *miss_mean;        /* controller._miss_latency_mean */
    PyObject *system_mean;      /* controller._system_miss_latency */
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
    if (mean_record_int(self->miss_mean, latency) < 0 ||
        mean_record_int(self->system_mean, latency) < 0) {
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
    PyObject *block =
        block_lookup(self->blocks, self->blocks_lookup, address);
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
    PyObject *address = message_get(message, MSG_ADDRESS);
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
            PyObject *m_id = message_get(message, MSG_TRANSACTION_ID);
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
    PyObject *token = message_get(message, MSG_DATA_TOKEN);
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
            PyObject *block =
                block_lookup(self->blocks, self->blocks_lookup, address);
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
    PyObject *block =
        block_lookup(self->blocks, self->blocks_lookup, address);
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

static PyObject *DataDeliver_vectorcall(DataDeliverObject *self,
                                        PyObject *const *args, size_t nargsf,
                                        PyObject *kwnames);

static int
DataDeliver_init(DataDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *transactions, *blocks, *blocks_lookup, *scheduler;
    PyObject *fallback, *service_deferred, *miss_mean, *system_mean;
    PyObject *try_complete = Py_None, *arena_release = Py_None;
    PyObject *message_release = Py_None;
    int directory;
    static char *kwlist[] = {
        "directory",     "controller",    "transactions",
        "blocks",        "blocks_lookup", "scheduler",
        "fallback",      "service_deferred", "miss_mean",
        "system_mean",   "try_complete",  "arena_release",
        "message_release", NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iOOOOOOOOO|OOO", kwlist, &directory, &controller,
            &transactions, &blocks, &blocks_lookup, &scheduler, &fallback,
            &service_deferred, &miss_mean, &system_mean, &try_complete,
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
    Py_INCREF(miss_mean);
    Py_XSETREF(self->miss_mean, miss_mean);
    Py_INCREF(system_mean);
    Py_XSETREF(self->system_mean, system_mean);
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
    self->vectorcall = (vectorcallfunc)DataDeliver_vectorcall;
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
    Py_VISIT(self->miss_mean);
    Py_VISIT(self->system_mean);
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
    Py_CLEAR(self->miss_mean);
    Py_CLEAR(self->system_mean);
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
DataDeliver_vectorcall(DataDeliverObject *self, PyObject *const *args,
                       size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("DataDeliver", nargsf, kwnames, 1))
        return NULL;
    PyObject *message = args[0];
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
    .tp_vectorcall_offset = offsetof(DataDeliverObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
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
 * Snooping or BASH node: the snoop and the home's memory side in one call.
 * Replaces the node's pure `deliver_home_filtered` entry around
 * SnoopingCacheController._snoop_request.
 *
 *   requester's own delivery -> stale check, retry bookkeeping, marker
 *     recording and the upgrade-at-marker completion, in C (completion
 *     itself delegates to _finish_getm);
 *   other nodes              -> the 15-of-16 "no block, no transaction"
 *     early-out, the stable SHARED-invalidation and the stable owner's
 *     DATA reply (owner_serve, with BASH's owner-side sufficiency check)
 *     entirely in C; live transactions, which may defer or note an
 *     invalidation, delegate to _handle_other_request;
 *   home node                -> the home test (the stock block-interleaved
 *     arithmetic), the memory's DATA reply (issue_mem_serve) and the
 *     directory's grant_exclusive/add_sharer bookkeeping (plus the BASH
 *     sufficiency check) in C; anything that retries, nacks or holds
 *     requests delegates to the memory controller's _ordered_request.
 *
 * The entry is built whole or not at all: the Python selection offers it
 * only when the cache, the memory controller, their config and every
 * reply object (completer, data_serve, mem_serve) are stock, so each
 * field below is always set.
 */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *msg_kind;       /* MessageType.GETS or .GETM */
    long long node_id;
    int bash;                 /* owner-side sufficiency check enabled */
    int mem_bash;             /* home-serve follows BASH semantics */
    long long block_bytes;    /* config.cache_block_bytes (home test) */
    long long num_procs;      /* config.num_processors (home test) */
    PyObject *controller;     /* cache controller (count() calls) */
    PyObject *transactions;   /* controller.transactions (dict) */
    PyObject *blocks;         /* controller.blocks._blocks (dict) */
    PyObject *blocks_lookup;  /* bound CacheBlockStore.lookup */
    PyObject *handle_other;   /* bound _handle_other_request */
    PyObject *finish_getm;    /* bound _finish_getm */
    PyObject *own_sufficient; /* bound _own_request_sufficient */
    PyObject *is_home_for;    /* bound memory-side home test: addresses the
                                 arithmetic cannot take */
    PyObject *mem_handler;    /* bound _ordered_request */
    PyObject *dir_entries;    /* directory._entries (dict) */
    PyObject *dir_lookup;     /* bound DirectoryStore.lookup */
    PyObject *completer;      /* DataDeliver for upgrade-at-marker */
    PyObject *mem_serve;      /* the home memory's MemServe (_issue.c) */
    PyObject *data_serve;     /* the cache's MemServe (owner replies) */
} SnoopDeliverObject;

static PyObject *SnoopDeliver_vectorcall(SnoopDeliverObject *self,
                                         PyObject *const *args, size_t nargsf,
                                         PyObject *kwnames);

static int
SnoopDeliver_init(SnoopDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *kind, *controller, *transactions, *blocks, *blocks_lookup;
    PyObject *handle_other, *finish_getm, *own_sufficient, *is_home_for;
    PyObject *mem_handler, *dir_entries, *dir_lookup;
    PyObject *completer, *mem_serve, *data_serve;
    long long node_id, block_bytes, num_procs;
    int bash, mem_bash;
    static char *kwlist[] = {
        "kind",          "node_id",      "bash",        "controller",
        "transactions",  "blocks",       "blocks_lookup",
        "handle_other",  "finish_getm",  "own_sufficient",
        "mem_bash",      "is_home_for",  "mem_handler", "dir_entries",
        "dir_lookup",    "block_bytes",  "num_procs",   "completer",
        "mem_serve",     "data_serve",   NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OLiOOOOOOOiOOOOLLOOO", kwlist, &kind, &node_id,
            &bash, &controller, &transactions, &blocks, &blocks_lookup,
            &handle_other, &finish_getm, &own_sufficient, &mem_bash,
            &is_home_for, &mem_handler, &dir_entries, &dir_lookup,
            &block_bytes, &num_procs, &completer, &mem_serve, &data_serve))
        return -1;
    if (!PyObject_TypeCheck(completer, &DataDeliver_Type) ||
        !issue_is_memserve(mem_serve) || !issue_is_memserve(data_serve)) {
        PyErr_SetString(PyExc_TypeError,
                        "completer must be a DataDeliver, mem_serve and "
                        "data_serve MemServe objects");
        return -1;
    }
    if (block_bytes <= 0 || num_procs <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "block_bytes and num_procs must be positive");
        return -1;
    }
    if (!protocol_injected())
        return -1;
    if (kind != MT_GETS && kind != MT_GETM) {
        PyErr_SetString(PyExc_ValueError,
                        "SnoopDeliver handles GETS or GETM entries only");
        return -1;
    }
    if (!PyDict_Check(transactions) || !PyDict_Check(blocks) ||
        !PyDict_Check(dir_entries)) {
        PyErr_SetString(PyExc_TypeError,
                        "transactions, blocks and dir_entries must be dicts");
        return -1;
    }
    self->node_id = node_id;
    self->bash = bash;
    self->mem_bash = mem_bash;
    self->block_bytes = block_bytes;
    self->num_procs = num_procs;
#define STORE(field) Py_XSETREF(self->field, Py_NewRef(field))
    Py_XSETREF(self->msg_kind, Py_NewRef(kind));
    STORE(controller);
    STORE(transactions);
    STORE(blocks);
    STORE(blocks_lookup);
    STORE(handle_other);
    STORE(finish_getm);
    STORE(own_sufficient);
    STORE(is_home_for);
    STORE(mem_handler);
    STORE(dir_entries);
    STORE(dir_lookup);
    STORE(completer);
    STORE(mem_serve);
    STORE(data_serve);
#undef STORE
    self->vectorcall = (vectorcallfunc)SnoopDeliver_vectorcall;
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
    Py_VISIT(self->is_home_for);
    Py_VISIT(self->mem_handler);
    Py_VISIT(self->dir_entries);
    Py_VISIT(self->dir_lookup);
    Py_VISIT(self->completer);
    Py_VISIT(self->mem_serve);
    Py_VISIT(self->data_serve);
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
    Py_CLEAR(self->is_home_for);
    Py_CLEAR(self->mem_handler);
    Py_CLEAR(self->dir_entries);
    Py_CLEAR(self->dir_lookup);
    Py_CLEAR(self->completer);
    Py_CLEAR(self->mem_serve);
    Py_CLEAR(self->data_serve);
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
    PyObject *recipients = message_get(message, MSG_RECIPIENTS);
    if (recipients == NULL) {
        Py_DECREF(tracked);
        return -1;
    }
    int result;
    if (PyAnySet_Check(tracked) && PyAnySet_Check(recipients)) {
        result = members_covered(tracked, recipients, self->node_id,
                                 self->node_id);
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
    PyObject *m_id = message_get(message, MSG_TRANSACTION_ID);
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
    int retry = message_truth(message, MSG_IS_RETRY);
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
    PyObject *block =
        block_lookup(self->blocks, self->blocks_lookup, address);
    if (block == NULL)
        goto fail;
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
                /* 1 = take the Python path */
                int finished = data_finish_getm(
                    (DataDeliverObject *)self->completer, transaction, block,
                    address);
                if (finished < 0) {
                    Py_DECREF(block);
                    goto fail;
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

/* BashCacheController._owner_getm_sufficient: a broadcast always is;
 * otherwise every tracked sharer but the requester and this node must be
 * a recipient.  1/0, 2 for containers only the Python check reads, -1
 * error. */
static int
owner_getm_sufficient(SnoopDeliverObject *self, PyObject *block,
                      PyObject *message, long long requester)
{
    int broadcast = message_truth(message, MSG_IS_BROADCAST);
    if (broadcast != 0)
        return broadcast;
    PyObject *tracked = PyObject_GetAttr(block, s_tracked_sharers);
    if (tracked == NULL)
        return -1;
    PyObject *recipients = message_get(message, MSG_RECIPIENTS);
    int result = -1;
    if (recipients != NULL)
        result = PyAnySet_Check(tracked) && PyAnySet_Check(recipients)
                     ? members_covered(tracked, recipients, requester,
                                       self->node_id)
                     : 2;
    Py_XDECREF(recipients);
    Py_DECREF(tracked);
    return result;
}

/* Another node's GETS/GETM: the early-out and the stable block's reaction
 * (_serve_stable: the owner's reply, the SHARED invalidation) in C; live
 * transactions and odd shapes delegate to _handle_other_request. */
static int
snoop_other(SnoopDeliverObject *self, PyObject *message, PyObject *address,
            long long requester)
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
    /* Stable block (_serve_stable); unexpected kinds raise in Python. */
    int error = 0;
    PyObject *kind = request_kind(message, self->msg_kind, &error);
    if (error)
        return -1;
    PyObject *state = PyObject_GetAttr(block, s_state);
    if (state == NULL)
        return -1;
    int known_kind = (kind == MT_GETS || kind == MT_GETM);
    int owner = (state == ST_MODIFIED || state == ST_OWNED);
    int shared = (state == ST_SHARED);
    int known_state = owner || shared || state == ST_INVALID;
    Py_DECREF(state);
    if (!known_kind || !known_state)
        return call_discard1(self->handle_other, message);
    int rc = 0;
    if (owner) {
        int sufficient =
            kind == MT_GETM && self->bash
                ? owner_getm_sufficient(self, block, message, requester)
                : 1;
        if (sufficient == 0)
            rc = count_stat(self->controller, s_insufficient_observed);
        else if (sufficient == 1)
            rc = owner_serve(self->data_serve, self->controller, self->blocks,
                             block, message, kind == MT_GETM);
        else /* -1 error, 2 containers only the Python check reads */
            rc = sufficient < 0 ? -1 : 1;
        if (rc == 1)
            rc = call_discard1(self->handle_other, message);
    }
    else if (kind == MT_GETM && shared) {
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
        int retry = message_truth(message, MSG_IS_RETRY);
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
        PyObject *recipients = message_get(message, MSG_RECIPIENTS);
        if (recipients == NULL)
            goto done;
        int sufficient;
        if (!PyAnySet_Check(recipients)) {
            Py_DECREF(recipients);
            rc = call_discard1(self->mem_handler, message);
            goto done;
        }
        if (is_getm) {
            sufficient = members_covered(sharers, recipients, requester,
                                         requester);
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
    /* The memory's DATA reply goes out through the compiled MemServe
     * (_issue.c); the directory bookkeeping below still runs in C.  When
     * the controller's latency is not a plain int (issue_mem_serve returns
     * 1, nothing sent), the whole request delegates. */
    if (self->mem_bash ? (is_getm ? owner == MEMORY_OWNER_ID
                                  : (owner == MEMORY_OWNER_ID ||
                                     owner == requester))
                       : owner == MEMORY_OWNER_ID) {
        int served = issue_mem_serve(self->mem_serve, message, entry);
        if (served < 0)
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
        PyObject *req_obj = message_get(message, MSG_REQUESTER);
        if (req_obj == NULL)
            goto done;
        int set_rc = PyObject_SetAttr(entry, s_owner, req_obj);
        Py_DECREF(req_obj);
        if (set_rc < 0 || PySet_Clear(sharers) < 0)
            goto done;
    }
    else if (requester != owner) {
        /* entry.add_sharer(requester) */
        PyObject *req_obj = message_get(message, MSG_REQUESTER);
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

/* The home test, then the memory side.  home_node(address) == node_id
 * with the stock block-interleaved mapping for the non-negative
 * machine-size addresses every run uses; any other address asks the
 * memory controller's own home test. */
static int
snoop_home(SnoopDeliverObject *self, PyObject *message, PyObject *address,
           long long requester)
{
    int is_home;
    long long addr = PyLong_AsLongLong(address);
    if (addr == -1 && PyErr_Occurred())
        PyErr_Clear();
    if (addr >= 0)
        is_home = (addr / self->block_bytes) % self->num_procs == self->node_id;
    else {
        PyObject *home = PyObject_CallOneArg(self->is_home_for, address);
        if (home == NULL)
            return -1;
        is_home = PyObject_IsTrue(home);
        Py_DECREF(home);
        if (is_home < 0)
            return -1;
    }
    if (!is_home)
        return 0;
    return home_serve(self, message, address, requester);
}

static PyObject *
SnoopDeliver_vectorcall(SnoopDeliverObject *self, PyObject *const *args,
                        size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("SnoopDeliver", nargsf, kwnames, 1))
        return NULL;
    PyObject *message = args[0];
    PyObject *address = message_get(message, MSG_ADDRESS);
    if (address == NULL)
        return NULL;
    int error = 0;
    long long requester = message_ll(message, MSG_REQUESTER, &error);
    if (error) {
        Py_DECREF(address);
        return NULL;
    }
    int rc;
    if (requester == self->node_id)
        rc = snoop_own(self, message, address);
    else
        rc = snoop_other(self, message, address, requester);
    if (rc == 0)
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
    .tp_vectorcall_offset = offsetof(SnoopDeliverObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
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
 * recording and the wait-for-data early-out in C, with completion through
 * the DataDeliver `completer`.  Another node's forward with no live
 * transaction runs _serve_forward in C: the owner's DATA reply
 * (owner_serve), the SHARED invalidation on FWD_GETM, and the
 * stale_forwards / invalidations counts; a live transaction (which may
 * defer the forward) delegates to _handle_other_forward.  Like
 * SnoopDeliver it is built whole: every entry has its completer, and a
 * forward entry its data_serve. */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    int forward; /* 1: FWD_GETS/FWD_GETM entry; 0: MARKER entry */
    long long node_id;
    PyObject *controller;   /* cache controller (count() calls) */
    PyObject *transactions; /* controller.transactions (dict) */
    PyObject *try_complete; /* bound _try_complete */
    PyObject *completer;    /* DataDeliver for marker completion */
    /* Forward entries only (NULL on the MARKER entry): */
    PyObject *handle_other; /* bound _handle_other_forward */
    PyObject *blocks;       /* controller.blocks._blocks (dict) */
    PyObject *blocks_lookup; /* bound CacheBlockStore.lookup */
    PyObject *data_serve;   /* the cache's MemServe (owner replies) */
} DirDeliverObject;

static PyObject *DirDeliver_vectorcall(DirDeliverObject *self,
                                       PyObject *const *args, size_t nargsf,
                                       PyObject *kwnames);

static int
DirDeliver_init(DirDeliverObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *controller, *transactions, *try_complete, *completer;
    PyObject *handle_other = Py_None, *blocks = Py_None;
    PyObject *blocks_lookup = Py_None, *data_serve = Py_None;
    long long node_id;
    int forward;
    static char *kwlist[] = {"forward",      "node_id",      "controller",
                             "transactions", "try_complete", "completer",
                             "handle_other", "blocks",       "blocks_lookup",
                             "data_serve",   NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iLOOOO|OOOO", kwlist,
                                     &forward, &node_id, &controller,
                                     &transactions, &try_complete, &completer,
                                     &handle_other, &blocks, &blocks_lookup,
                                     &data_serve))
        return -1;
    if (!PyObject_TypeCheck(completer, &DataDeliver_Type)) {
        PyErr_SetString(PyExc_TypeError, "completer must be a DataDeliver");
        return -1;
    }
    if (!PyDict_Check(transactions)) {
        PyErr_SetString(PyExc_TypeError, "transactions must be a dict");
        return -1;
    }
    if (forward && (handle_other == Py_None || !issue_is_memserve(data_serve) ||
                    !PyDict_Check(blocks) || blocks_lookup == Py_None)) {
        PyErr_SetString(PyExc_TypeError,
                        "forward entries require handle_other, a MemServe "
                        "data_serve, blocks (dict) and blocks_lookup");
        return -1;
    }
    self->forward = forward;
    self->node_id = node_id;
    Py_XSETREF(self->controller, Py_NewRef(controller));
    Py_XSETREF(self->transactions, Py_NewRef(transactions));
    Py_XSETREF(self->try_complete, Py_NewRef(try_complete));
    Py_XSETREF(self->completer, Py_NewRef(completer));
    Py_XSETREF(self->handle_other, forward ? Py_NewRef(handle_other) : NULL);
    Py_XSETREF(self->blocks, forward ? Py_NewRef(blocks) : NULL);
    Py_XSETREF(self->blocks_lookup, forward ? Py_NewRef(blocks_lookup) : NULL);
    Py_XSETREF(self->data_serve, forward ? Py_NewRef(data_serve) : NULL);
    self->vectorcall = (vectorcallfunc)DirDeliver_vectorcall;
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
    Py_VISIT(self->blocks);
    Py_VISIT(self->blocks_lookup);
    Py_VISIT(self->data_serve);
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
    Py_CLEAR(self->blocks);
    Py_CLEAR(self->blocks_lookup);
    Py_CLEAR(self->data_serve);
    return 0;
}

static void
DirDeliver_dealloc(DirDeliverObject *self)
{
    PyObject_GC_UnTrack(self);
    DirDeliver_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* _serve_forward for a stable block: 1 when _handle_other_forward must
 * run (nothing changed), 0 served, -1 error. */
static int
dir_serve_forward(DirDeliverObject *self, PyObject *block, PyObject *message)
{
    PyObject *msg_type = message_get(message, MSG_MSG_TYPE);
    if (msg_type == NULL)
        return -1;
    int getm = msg_type == MT_FWD_GETM;
    int gets = msg_type == MT_FWD_GETS;
    Py_DECREF(msg_type);
    PyObject *state = PyObject_GetAttr(block, s_state);
    if (state == NULL)
        return -1;
    int owner = (state == ST_MODIFIED || state == ST_OWNED);
    int shared = (state == ST_SHARED);
    int known_state = owner || shared || state == ST_INVALID;
    Py_DECREF(state);
    if (!(getm || gets) || !known_state) /* raises in Python */
        return 1;
    if (owner)
        return owner_serve(self->data_serve, self->controller, self->blocks,
                           block, message, getm);
    if (gets)
        return count_stat(self->controller, s_stale_forwards);
    if (!shared)
        return 0; /* FWD_GETM at Invalid: a stale sharer in the superset */
    /* block.invalidate(); blocks.drop(block.address); count(...) */
    PyObject *tracked = PyObject_GetAttr(block, s_tracked_sharers);
    if (tracked == NULL)
        return -1;
    if (!PySet_Check(tracked)) {
        Py_DECREF(tracked);
        return 1;
    }
    int rc = -1;
    PyObject *address = PyObject_GetAttr(block, s_address);
    if (address != NULL && PyObject_SetAttr(block, s_state, ST_INVALID) == 0 &&
        PySet_Clear(tracked) == 0) {
        if (PyDict_DelItem(self->blocks, address) < 0)
            PyErr_Clear(); /* pop(address, None) semantics */
        rc = count_stat(self->controller, s_invalidations);
    }
    Py_XDECREF(address);
    Py_DECREF(tracked);
    return rc;
}

/* _handle_other_forward: a live transaction delegates; otherwise the
 * block record (created Invalid when absent, as blocks.lookup does) is
 * served in C. */
static int
dir_other_forward(DirDeliverObject *self, PyObject *message)
{
    PyObject *address = message_get(message, MSG_ADDRESS);
    if (address == NULL)
        return -1;
    PyObject *transaction = PyDict_GetItemWithError(self->transactions, address);
    int live = 0;
    if (transaction != NULL) {
        int completed = attr_truth(transaction, s_completed);
        live = completed < 0 ? -1 : !completed;
    }
    else if (PyErr_Occurred())
        live = -1;
    PyObject *block = NULL;
    if (live == 0) {
        block = block_lookup(self->blocks, self->blocks_lookup, address);
        if (block == NULL)
            live = -1;
    }
    Py_DECREF(address);
    if (live < 0)
        return -1;
    int rc = live ? 1 : dir_serve_forward(self, block, message);
    Py_XDECREF(block);
    if (rc == 1)
        rc = call_discard1(self->handle_other, message);
    return rc;
}

static PyObject *
DirDeliver_vectorcall(DirDeliverObject *self, PyObject *const *args,
                      size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("DirDeliver", nargsf, kwnames, 1))
        return NULL;
    PyObject *message = args[0];
    if (self->forward) {
        int error = 0;
        long long requester = message_ll(message, MSG_REQUESTER, &error);
        if (error)
            return NULL;
        if (requester != self->node_id) {
            if (dir_other_forward(self, message) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
    }
    /* _handle_marker (and the own-forward half of _handle_forward) */
    PyObject *address = message_get(message, MSG_ADDRESS);
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
    PyObject *m_id = message_get(message, MSG_TRANSACTION_ID);
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
    /* 1 = take the Python path */
    int done =
        data_try_complete((DataDeliverObject *)self->completer, transaction);
    if (done < 0)
        goto fail;
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
    .tp_vectorcall_offset = offsetof(DirDeliverObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
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

enum { LINK_BUSY_UNTIL, LINK_BUSY_TOTAL, LINK_PERIOD_START, LINK_PERIOD_PREFIX,
       LINK_SLOTS };
enum { SAMPLE_TIME, SAMPLE_UTILIZATION, SAMPLE_COUNTER, SAMPLE_POLICY,
       SAMPLE_PROBABILITY, SAMPLE_SLOTS };
enum { POLICY_VALUE, POLICY_MAXIMUM, POLICY_SLOTS };

/* Slot names, interned at module init (a type's attribute cache keeps
 * the looked-up name alive, so lookups must not mint fresh strings). */
static const char *link_slot_text[LINK_SLOTS] = {
    "_busy_until", "_busy_total", "_period_start", "_period_prefix"};
static const char *mean_slot_text[MEAN_SLOTS] = {
    "_count", "_total", "_mean", "_m2", "_minimum", "_maximum"};
static const char *sample_slot_text[SAMPLE_SLOTS] = {
    "time", "utilization", "utilization_counter", "policy_counter",
    "unicast_probability"};
static const char *policy_slot_text[POLICY_SLOTS] = {"_value", "_maximum"};
static PyObject *link_slot_names[LINK_SLOTS];
static PyObject *mean_slot_names[MEAN_SLOTS];
static PyObject *sample_slot_names[SAMPLE_SLOTS];
static PyObject *policy_slot_names[POLICY_SLOTS];
static SlotLayout link_layout, mean_layout, sample_layout, policy_layout;
static PyObject *s_append;

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    long long busy_delta;      /* q - p: added per busy cycle */
    long long idle_delta;      /* p: subtracted per idle cycle */
    PyObject *controller;      /* BashCacheController (window attrs) */
    PyObject *scheduler;       /* compiled SchedulerBase */
    PyObject *link_in;         /* the node's two EndpointLinks */
    PyObject *link_out;
    PyObject *pure;            /* bound _sample_utilization (bail target) */
    PyObject *policy;          /* UnsignedSaturatingCounter */
    PyObject *history_append;  /* bound mechanism.history.append (a deque) */
    PyObject *sample_cls;      /* AdaptiveSample */
    PyObject *means[3];        /* RunningMeans: node and system utilisation,
                                  system unicast probability */
    PyObject *label;
    Py_ssize_t link_slots[LINK_SLOTS];
    Py_ssize_t mean_slots[MEAN_SLOTS];
    Py_ssize_t sample_slots[SAMPLE_SLOTS];
    Py_ssize_t policy_slots[POLICY_SLOTS]; /* UnsignedSaturatingCounter */
} BashSampleObject;

static PyObject *BashSample_vectorcall(BashSampleObject *self,
                                       PyObject *const *args, size_t nargsf,
                                       PyObject *kwnames);

/* Resolve `names` on `cls` through the class's layout cache and copy the
 * offsets out; 0 / -1 with TypeError for a class without those slots. */
static int
copy_slots(SlotLayout *layout, PyTypeObject *cls, PyObject *const *names,
           int count, Py_ssize_t *offsets)
{
    if (slot_layout_required(layout, cls, names, count) < 0)
        return -1;
    memcpy(offsets, layout->offsets, count * sizeof(Py_ssize_t));
    return 0;
}

static PyObject *s__window_start;
static PyObject *s__window_busy_in;
static PyObject *s__window_busy_out;
static PyObject *s__sampling_interval;

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
    if (copy_slots(&link_layout, Py_TYPE(link_in), link_slot_names,
                   LINK_SLOTS, self->link_slots) < 0 ||
        copy_slots(&mean_layout, Py_TYPE(mean_node), mean_slot_names,
                   MEAN_SLOTS, self->mean_slots) < 0 ||
        copy_slots(&sample_layout, (PyTypeObject *)sample_cls,
                   sample_slot_names, SAMPLE_SLOTS, self->sample_slots) < 0 ||
        copy_slots(&policy_layout, Py_TYPE(policy), policy_slot_names,
                   POLICY_SLOTS, self->policy_slots) < 0)
        return -1;
    PyObject *append = PyObject_GetAttr(history, s_append);
    if (append == NULL)
        return -1;
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
    STORE_SAMPLE(sample_cls, sample_cls);
    STORE_SAMPLE(means[0], mean_node);
    STORE_SAMPLE(means[1], mean_util);
    STORE_SAMPLE(means[2], mean_prob);
    STORE_SAMPLE(label, label);
#undef STORE_SAMPLE
    self->vectorcall = (vectorcallfunc)BashSample_vectorcall;
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
    PyObject *sample = cls->tp_new(cls, empty_args, NULL);
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
BashSample_vectorcall(BashSampleObject *self, PyObject *const *Py_UNUSED(args),
                      size_t nargsf, PyObject *kwnames)
{
    if (!vectorcall_args("BashSample", nargsf, kwnames, 0))
        return NULL;
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
        !slot_ll(self->policy, self->policy_slots[POLICY_VALUE], &policy) ||
        !slot_ll(self->policy, self->policy_slots[POLICY_MAXIMUM], &maximum) ||
        maximum <= 0 || maximum >= EXACT_DOUBLE_INT || policy < 0 ||
        policy > maximum ||
        !mean_read(self->mean_slots, self->means[0], &unused) ||
        !mean_read(self->mean_slots, self->means[1], &unused) ||
        !mean_read(self->mean_slots, self->means[2], &unused))
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
        slot_store(self->policy, self->policy_slots[POLICY_VALUE],
                   PyLong_FromLongLong(moved)) < 0)
        return NULL;
    PyObject *sample =
        new_sample(self, now, utilization, value, moved, probability);
    if (sample == NULL)
        return NULL;
    int rc = call_discard1(self->history_append, sample);
    Py_DECREF(sample);
    if (rc < 0 ||
        mean_record(self->mean_slots, self->means[0], utilization, NULL) < 0 ||
        mean_record(self->mean_slots, self->means[1], utilization, NULL) < 0 ||
        mean_record(self->mean_slots, self->means[2], probability, NULL) < 0 ||
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
    .tp_vectorcall_offset = offsetof(BashSampleObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled BASH sampling event (one per node).",
    .tp_traverse = (traverseproc)BashSample_traverse,
    .tp_clear = (inquiry)BashSample_clear,
    .tp_init = (initproc)BashSample_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------- module glue */

/* _init_protocol(GETS, GETM, PUTM, DATA, MARKER, FWD_GETS, FWD_GETM,
 * MODIFIED, OWNED, SHARED, INVALID, du_cache, du_memory, empty_recipients,
 * memory_owner): inject the singletons of _core.h that every compiled
 * protocol object compares by identity.  Idempotent; called by
 * repro.protocols.dispatch on first use. */
static PyObject *
chandlers_init_protocol(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *objects[14];
    long long memory_owner;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOOL", &objects[0], &objects[1],
                          &objects[2], &objects[3], &objects[4], &objects[5],
                          &objects[6], &objects[7], &objects[8], &objects[9],
                          &objects[10], &objects[11], &objects[12],
                          &objects[13], &memory_owner))
        return NULL;
    PyObject **targets[14] = {
        &MT_GETS,     &MT_GETM,     &MT_PUTM,    &MT_DATA,    &MT_MARKER,
        &MT_FWD_GETS, &MT_FWD_GETM, &ST_MODIFIED, &ST_OWNED,  &ST_SHARED,
        &ST_INVALID,  &DU_CACHE_U,  &DU_MEMORY_U, &EMPTY_RECIPIENTS};
    for (int i = 0; i < 14; i++)
        Py_XSETREF(*targets[i], Py_NewRef(objects[i]));
    MEMORY_OWNER_ID = memory_owner;
    Py_RETURN_NONE;
}

static PyMethodDef chandlers_methods[] = {
    {"_init_protocol", chandlers_init_protocol, METH_VARARGS,
     "Inject the protocol singletons the compiled objects compare by "
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

    INTERN(s_address, "address");
    INTERN(s_transaction_id, "transaction_id");
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
    INTERN(s_stale_own_requests, "stale_own_requests");
    INTERN(s_invalidations, "invalidations");
    INTERN(s_stale_markers, "stale_markers");
    INTERN(s_stale_forwards, "stale_forwards");
    INTERN(s_cache_to_cache, "cache_to_cache");
    INTERN(s_insufficient_observed, "insufficient_observed");
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
    INTERN(s_append, "append");
    for (int i = 0; i < LINK_SLOTS; i++)
        INTERN(link_slot_names[i], link_slot_text[i]);
    for (int i = 0; i < MEAN_SLOTS; i++)
        INTERN(mean_slot_names[i], mean_slot_text[i]);
    for (int i = 0; i < SAMPLE_SLOTS; i++)
        INTERN(sample_slot_names[i], sample_slot_text[i]);
    for (int i = 0; i < POLICY_SLOTS; i++)
        INTERN(policy_slot_names[i], policy_slot_text[i]);
#undef INTERN
    ll_one = PyLong_FromLong(1);
    empty_args = PyTuple_New(0);
    if (ll_one == NULL || empty_args == NULL)
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
