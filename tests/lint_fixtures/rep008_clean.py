"""Clean fixture for REP008: every knob goes through the resolver."""

from repro.runtime import envconfig


def scale():
    return envconfig.get_int("REPRO_SCALE", 400)


def workers():
    return envconfig.raw("REPRO_WORKERS")


def enable_sharding():
    envconfig.set_env("REPRO_SHARDS", "2")
