"""Violating fixture for REP008: raw environment access everywhere."""

import os
from os import environ, getenv


def scale():
    return int(os.environ.get("REPRO_SCALE", "400"))


def workers():
    return os.getenv("REPRO_WORKERS", "1")


def enable_sharding():
    os.environ["REPRO_SHARDS"] = "2"


def from_import_reads():
    return environ.get("REPRO_CACHE"), getenv("REPRO_SPILL_DIR")
